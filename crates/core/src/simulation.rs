//! Driving executions: protocol + world + scheduler + statistics.

use crate::scheduler::{SamplingMode, Scheduler, UniformScheduler};
use crate::snapshot::{Snapshot, SnapshotProtocol, SnapshotWriter, FORMAT_VERSION, MAGIC};
use crate::world::trace_lane;
use crate::{CoreError, ExecutionStats, Protocol, World};
use nc_geometry::Shape;
use nc_obs::{Phase, PhaseProfile, Telemetry, TraceEventKind};

/// Configuration of a simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimulationConfig {
    /// Population size `n`.
    pub n: usize,
    /// Seed of the uniform random scheduler.
    pub seed: u64,
    /// Hard ceiling on the number of scheduler steps for the `run_until_*` helpers.
    pub max_steps: u64,
    /// Sampling strategy of the uniform scheduler (adaptive by default; legacy
    /// reproduces the original rejection sampler byte for byte).
    pub sampling: SamplingMode,
    /// A recorded shard count, default 1. It does not shape the execution (the world
    /// has one pair-index layout); snapshots store it, decoding rejects 0, and the
    /// service echoes it in job reports.
    pub shards: usize,
    /// Inert, defaults to 0; only reader is `perfbench`, drop at its next revision.
    pub speculation: usize,
}

impl SimulationConfig {
    /// Creates a configuration for `n` nodes with a default seed, a step budget of
    /// `10⁹` steps, adaptive sampling and a recorded shard count of 1.
    #[must_use]
    pub fn new(n: usize) -> SimulationConfig {
        SimulationConfig {
            n,
            seed: 0xC0FFEE,
            max_steps: 1_000_000_000,
            sampling: SamplingMode::default(),
            shards: 1,
            speculation: 0,
        }
    }

    /// Sets the scheduler seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> SimulationConfig {
        self.seed = seed;
        self
    }

    /// Sets the step budget used by the `run_until_*` helpers.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> SimulationConfig {
        self.max_steps = max_steps;
        self
    }

    /// Sets the sampling strategy of the uniform scheduler.
    #[must_use]
    pub fn with_sampling(mut self, sampling: SamplingMode) -> SimulationConfig {
        self.sampling = sampling;
        self
    }

    /// Shorthand for selecting the byte-exact legacy rejection sampler.
    #[must_use]
    pub fn with_legacy_sampling(self) -> SimulationConfig {
        self.with_sampling(SamplingMode::Legacy)
    }

    /// Shorthand for selecting the sharded composed-jump sampler.
    #[must_use]
    pub fn with_sharded_sampling(self) -> SimulationConfig {
        self.with_sampling(SamplingMode::Sharded)
    }

    /// Sets the recorded shard count (see [`SimulationConfig::shards`]).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> SimulationConfig {
        self.shards = shards;
        self
    }
}

/// Why a `run_until_*` helper returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The configuration is stable: no effective interaction exists any more.
    Stable,
    /// The caller's predicate became true.
    Predicate,
    /// Every node reached a halted state.
    AllHalted,
    /// The step budget (or the call's drawn-selection allowance) was exhausted
    /// before the requested condition held.
    StepBudget,
    /// The scheduler produced no interaction (population of a single node).
    NoInteraction,
}

/// Summary of a `run_until_*` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Scheduler steps taken during this call (including sharded-mode bulk credits).
    pub steps: u64,
    /// Effective steps taken during this call.
    pub effective_steps: u64,
    /// Why the run stopped.
    pub reason: StopReason,
    /// Whether the final configuration is stable (always true when `reason` is
    /// [`StopReason::Stable`], checked explicitly for the other reasons only when cheap).
    pub stabilized: bool,
    /// Per-phase wall-clock profile accumulated over the simulation's lifetime.
    /// All zero unless telemetry was attached via [`Simulation::set_telemetry`],
    /// so report equality checks between instrumented and plain runs must
    /// compare the other fields — and equality between two *uninstrumented*
    /// runs is unaffected.
    pub phases: PhaseProfile,
}

impl RunReport {
    /// Whether the run stopped because its requested condition held (a predicate became
    /// true, halting was reached, or stability was detected) rather than because the
    /// step budget ran out or the scheduler ran dry.
    #[must_use]
    pub fn condition_met(&self) -> bool {
        matches!(
            self.reason,
            StopReason::Predicate | StopReason::AllHalted | StopReason::Stable
        )
    }
}

/// Outcome of one bounded scheduler call.
enum StepOutcome {
    /// An interaction was selected and applied (plus possibly bulk-credited skips).
    Applied,
    /// The whole allowance was spent on bulk-credited ineffective selections.
    BudgetSpent,
    /// The scheduler produced nothing (single-node population).
    Dry,
}

/// A running execution of a protocol under a scheduler.
pub struct Simulation<P: Protocol, S: Scheduler = UniformScheduler> {
    world: World<P>,
    scheduler: S,
    stats: ExecutionStats,
    config: SimulationConfig,
    obs: Telemetry,
}

impl<P: Protocol> Simulation<P, UniformScheduler> {
    /// Creates a simulation with the uniform random scheduler of the paper, using the
    /// sampling mode recorded in the configuration.
    #[must_use]
    pub fn new(protocol: P, config: SimulationConfig) -> Simulation<P, UniformScheduler> {
        let scheduler = UniformScheduler::with_mode(config.seed, config.sampling);
        Simulation::with_scheduler(protocol, config, scheduler)
    }
}

impl<P: SnapshotProtocol> Simulation<P, UniformScheduler> {
    /// Captures a versioned, checksummed snapshot of the running execution: the
    /// configuration, the statistics, the scheduler's RNG streams and sticky flags,
    /// and the world's full runtime state (including the sampler-visible component
    /// and class-table layouts). Snapshots are taken *between* steps — at the
    /// serialization points of the execution — and [`Simulation::resume`] rebuilds a
    /// simulation whose remaining trajectory is **byte-identical** to the
    /// uninterrupted run's, in every sampling mode and at every shard count (pinned
    /// by the crash-injection suite in `tests/crash_resume.rs`).
    ///
    /// Because work counters ([`crate::IndexStats`]) are excluded,
    /// byte equality of two snapshots is exactly "same execution state": the crash
    /// harness uses whole-snapshot comparison as its trajectory oracle.
    ///
    /// # Errors
    /// [`CoreError::SnapshotCorrupt`] when the protocol name does not fit the
    /// format's `u16` length prefix — a malicious or buggy protocol name must
    /// surface as a typed failure, never abort a worker mid-checkpoint.
    pub fn checkpoint(&self) -> crate::Result<Snapshot> {
        let mut out = SnapshotWriter::new();
        out.bytes(&MAGIC);
        out.u16(FORMAT_VERSION);
        out.str16(self.world.protocol().name())?;
        out.u64(self.config.n as u64);
        out.u64(self.config.seed);
        out.u64(self.config.max_steps);
        out.u8(self.config.sampling.snapshot_tag());
        out.u64(self.config.shards as u64);
        // Format v1's once-reserved word (the retired speculation window): the rest
        // of a jump that a step allowance cut short, or 0.
        out.u64(self.scheduler.pending_jump_word());
        out.u64(self.stats.steps);
        out.u64(self.stats.effective_steps);
        out.u64(self.stats.skipped_steps);
        out.u64(self.stats.bonds_activated);
        out.u64(self.stats.bonds_deactivated);
        out.u64(self.stats.merges);
        out.u64(self.stats.splits);
        // World before scheduler: the scheduler's decoder needs the decoded world to
        // re-warm its enumeration cache.
        self.world.snapshot_encode(&mut out);
        self.scheduler.snapshot_encode(&self.world, &mut out);
        self.obs.trace(
            0,
            TraceEventKind::Checkpoint {
                bytes: out.len() as u64,
            },
        );
        Ok(Snapshot::seal(out))
    }

    /// Rebuilds a running simulation from a snapshot taken by
    /// [`Simulation::checkpoint`]. The protocol instance must be equivalent to the
    /// one the snapshot was taken with (same name, same transition function — the
    /// name is checked, the semantics are the caller's contract).
    ///
    /// # Errors
    /// [`CoreError::SnapshotProtocolMismatch`] when the snapshot names a different
    /// protocol; [`CoreError::SnapshotTruncated`] / [`CoreError::SnapshotCorrupt`]
    /// when the body is malformed (every id bounds-checked, scalar bookkeeping
    /// recounted, full invariant suite run — corrupt input never panics).
    pub fn resume(
        protocol: P,
        snapshot: &Snapshot,
    ) -> crate::Result<Simulation<P, UniformScheduler>> {
        fn corrupt(what: &'static str) -> CoreError {
            CoreError::SnapshotCorrupt { what }
        }
        let mut r = snapshot.body_reader();
        let name = r.str16()?;
        if name != protocol.name() {
            return Err(CoreError::SnapshotProtocolMismatch {
                snapshot: name.to_string(),
                protocol: protocol.name().to_string(),
            });
        }
        let n = usize::try_from(r.u64()?).map_err(|_| corrupt("population size out of range"))?;
        let seed = r.u64()?;
        let max_steps = r.u64()?;
        let sampling = SamplingMode::from_snapshot_tag(r.u8()?)?;
        let shards = usize::try_from(r.u64()?).map_err(|_| corrupt("shard count out of range"))?;
        // The pending-jump word (older snapshots stored a speculation window here,
        // which decodes as none).
        let pending_jump = r.u64()?;
        if shards == 0 {
            return Err(corrupt("shard count is zero"));
        }
        let stats = ExecutionStats {
            steps: r.u64()?,
            effective_steps: r.u64()?,
            skipped_steps: r.u64()?,
            bonds_activated: r.u64()?,
            bonds_deactivated: r.u64()?,
            merges: r.u64()?,
            splits: r.u64()?,
        };
        let world = World::snapshot_decode(protocol, n, &mut r)?;
        let scheduler =
            UniformScheduler::snapshot_decode(seed, sampling, pending_jump, &world, &mut r)?;
        if r.remaining() != 0 {
            return Err(corrupt("trailing bytes after the snapshot body"));
        }
        Ok(Simulation {
            world,
            scheduler,
            stats,
            config: SimulationConfig {
                n,
                seed,
                max_steps,
                sampling,
                shards,
                speculation: 0,
            },
            obs: Telemetry::disabled(),
        })
    }
}

impl<P: Protocol, S: Scheduler> Simulation<P, S> {
    /// Creates a simulation with a custom scheduler.
    #[must_use]
    pub fn with_scheduler(protocol: P, config: SimulationConfig, scheduler: S) -> Simulation<P, S> {
        Simulation {
            world: World::new(protocol, config.n),
            scheduler,
            stats: ExecutionStats::default(),
            config,
            obs: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle to the simulation and its world (the world
    /// forwards it to the pair index). A disabled handle detaches: every hook
    /// degrades back to an early return. Telemetry never influences the sampled
    /// trajectory — it only observes it. Events emitted before the next step (a
    /// stability check's index build, say) are stamped with the lifetime step count,
    /// so a handle attached after a resume stamps them as the uninterrupted run does.
    pub fn set_telemetry(&mut self, obs: Telemetry) {
        obs.set_step(self.stats.steps);
        self.world.set_telemetry(obs.clone());
        self.obs = obs;
    }

    /// The attached telemetry handle (disabled by default).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.obs
    }

    /// The current configuration.
    #[must_use]
    pub fn world(&self) -> &World<P> {
        &self.world
    }

    /// Mutable access to the configuration (used by phased protocol compositions and by
    /// tests that need to pre-arrange a configuration).
    #[must_use]
    pub fn world_mut(&mut self) -> &mut World<P> {
        &mut self.world
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ExecutionStats {
        self.stats
    }

    /// The configuration this simulation was created with.
    #[must_use]
    pub fn config(&self) -> SimulationConfig {
        self.config
    }

    /// Mutable access to the run configuration (the population size is fixed at
    /// construction; changing `n` here has no effect — adjust budgets instead).
    #[must_use]
    pub fn config_mut(&mut self) -> &mut SimulationConfig {
        &mut self.config
    }

    /// Executes a single scheduler step. Returns `false` when the scheduler could not
    /// produce an interaction (single-node population). In sharded mode one call may
    /// credit many skipped ineffective selections to the step counters before applying
    /// the effective one.
    pub fn step(&mut self) -> bool {
        matches!(self.step_within(u64::MAX), StepOutcome::Applied)
    }

    /// One scheduler call with a step allowance (geometric jumps that would overshoot it
    /// spend it on skipped ineffective selections instead).
    fn step_within(&mut self, max_steps: u64) -> StepOutcome {
        self.obs.set_step(self.stats.steps);
        let mut sample = self.obs.phase(Phase::Sample);
        let picked = self
            .scheduler
            .next_interaction_bounded(&self.world, max_steps);
        let skipped = self.scheduler.drain_skipped_steps();
        sample.add_units(skipped + u64::from(picked.is_some()));
        drop(sample);
        self.stats.steps += skipped;
        self.stats.skipped_steps += skipped;
        let Some(interaction) = picked else {
            return if skipped > 0 {
                StepOutcome::BudgetSpent
            } else {
                StepOutcome::Dry
            };
        };
        // Events emitted inside this apply (merge, split, flush, class churn)
        // are stamped with the 1-based ordinal of the step that caused them.
        self.obs.set_step(self.stats.steps + 1);
        let apply = self.obs.phase(Phase::Apply);
        let outcome = self.world.apply(&interaction);
        drop(apply);
        if self.obs.is_enabled() {
            let node = interaction.a.min(interaction.b);
            self.obs.trace(
                trace_lane(node, self.config.n),
                TraceEventKind::Selection {
                    effective: outcome.effective,
                },
            );
        }
        self.stats.steps += 1;
        if outcome.effective {
            self.stats.effective_steps += 1;
        }
        if outcome.bond_activated {
            self.stats.bonds_activated += 1;
        }
        if outcome.bond_deactivated {
            self.stats.bonds_deactivated += 1;
        }
        if outcome.merged {
            self.stats.merges += 1;
        }
        if outcome.split {
            self.stats.splits += 1;
        }
        StepOutcome::Applied
    }

    /// Executes up to `steps` scheduler steps (counting bulk credits); returns
    /// how many were actually executed. A geometric jump that would overshoot is
    /// cut at `steps` and continued by the next call, so chunked runs equal one
    /// unchunked run.
    pub fn run_steps(&mut self, steps: u64) -> u64 {
        let start = self.stats.steps;
        while self.stats.steps - start < steps {
            let left = steps - (self.stats.steps - start);
            if matches!(self.step_within(left), StepOutcome::Dry) {
                break;
            }
        }
        self.stats.steps - start
    }

    /// Runs until the given predicate on the configuration holds (checked after every
    /// step and once before the first), until the step budget is exhausted, or until the
    /// scheduler runs dry.
    pub fn run_until(&mut self, predicate: impl FnMut(&World<P>) -> bool) -> RunReport {
        self.run_until_within(u64::MAX, predicate)
    }

    /// [`Simulation::run_until`] that also stops, with [`StopReason::StepBudget`], once
    /// this call has drawn `max_drawn` selections
    /// ([`ExecutionStats::drawn_selections`]). That bound counts the selections the
    /// scheduler actually draws, so it is a bound on work: under the jump sampler the
    /// run stops right after an applied selection, never inside a jump, and a run
    /// continued call after call takes the trajectory of one uninterrupted call.
    pub fn run_until_within(
        &mut self,
        max_drawn: u64,
        mut predicate: impl FnMut(&World<P>) -> bool,
    ) -> RunReport {
        let start = self.stats;
        let mut reason = StopReason::StepBudget;
        if predicate(&self.world) {
            reason = StopReason::Predicate;
        } else {
            while self.stats.steps - start.steps < self.config.max_steps
                && self.stats.drawn_selections() - start.drawn_selections() < max_drawn
            {
                let left = self.config.max_steps - (self.stats.steps - start.steps);
                match self.step_within(left) {
                    StepOutcome::Applied => {
                        if predicate(&self.world) {
                            reason = StopReason::Predicate;
                            break;
                        }
                    }
                    StepOutcome::BudgetSpent => {}
                    StepOutcome::Dry => {
                        reason = StopReason::NoInteraction;
                        break;
                    }
                }
            }
        }
        self.report_since(start, reason, false)
    }

    /// Runs until the configuration is stable (no effective interaction remains).
    ///
    /// With adaptive or sharded sampling, stability is re-checked whenever the
    /// configuration version changed, through the permissible-pair index's `O(1)`
    /// effective count ([`World::is_stable`]) — so the run stops **exactly** at the
    /// stabilization step. Sharded sampling
    /// additionally credits whole runs of ineffective selections in bulk (see
    /// [`SamplingMode::Sharded`]), so the reported step counts keep the same
    /// distribution while the wall-clock cost is `O(1)` per *effective* step.
    ///
    /// With [`SamplingMode::Legacy`] the original engine is reproduced faithfully,
    /// including its cost model and stopping rule: the `O(n² · ports²)` full-scan
    /// stability check runs at geometrically increasing step intervals (starting at
    /// `max(n, 16) · 8`), so the reported step count overshoots the exact stabilization
    /// step by up to a constant factor, exactly as the pre-index implementation did.
    /// This is the baseline the scheduler n-sweep benchmarks against.
    pub fn run_until_stable(&mut self) -> RunReport {
        self.run_until_stable_within(u64::MAX)
    }

    /// [`Simulation::run_until_stable`] that also stops, with
    /// [`StopReason::StepBudget`], once this call has drawn `max_drawn` selections
    /// (see [`Simulation::run_until_within`]).
    pub fn run_until_stable_within(&mut self, max_drawn: u64) -> RunReport {
        match self.config.sampling {
            SamplingMode::Adaptive | SamplingMode::Sharded => {
                self.run_until_stable_indexed(max_drawn)
            }
            SamplingMode::Legacy => self.run_until_stable_legacy(max_drawn),
        }
    }

    /// Like [`Simulation::run_until_stable`], but step-budget exhaustion is a typed
    /// error instead of a report field. The carried step count is the execution's
    /// *lifetime* count — [`Simulation::resume`] restores the statistics with the
    /// rest of the runtime state, so a budget exhausted after a
    /// checkpoint/crash/resume cycle reports the same count as an uninterrupted run.
    ///
    /// # Errors
    /// [`CoreError::StepBudgetExhausted`] when the budget ran out before stability.
    pub fn try_run_until_stable(&mut self) -> crate::Result<RunReport> {
        let report = self.run_until_stable();
        if report.reason == StopReason::StepBudget {
            return Err(CoreError::StepBudgetExhausted {
                steps: self.stats.steps,
            });
        }
        Ok(report)
    }

    fn run_until_stable_indexed(&mut self, max_drawn: u64) -> RunReport {
        let start = self.stats;
        // The configuration version gates re-checking: an unchanged version means the
        // previous "unstable" verdict still holds, so ineffective steps cost nothing.
        let mut checked_version = None;
        loop {
            let version = self.world.version();
            if checked_version != Some(version) {
                if self.world.is_stable() {
                    return self.report_since(start, StopReason::Stable, true);
                }
                checked_version = Some(version);
            }
            if self.stats.steps - start.steps >= self.config.max_steps
                || self.stats.drawn_selections() - start.drawn_selections() >= max_drawn
            {
                return self.report_since(start, StopReason::StepBudget, false);
            }
            let left = self.config.max_steps - (self.stats.steps - start.steps);
            match self.step_within(left) {
                StepOutcome::Applied | StepOutcome::BudgetSpent => {}
                StepOutcome::Dry => {
                    let stable = self.world.is_stable();
                    return self.report_since(start, StopReason::NoInteraction, stable);
                }
            }
        }
    }

    fn run_until_stable_legacy(&mut self, max_drawn: u64) -> RunReport {
        let start = self.stats;
        let mut interval = (self.config.n as u64).max(16) * 8;
        // Legacy sampling credits no skips, so every step is a drawn selection.
        let budget = self.config.max_steps.min(max_drawn);
        loop {
            if self.world.is_stable_scan() {
                return self.report_since(start, StopReason::Stable, true);
            }
            if self.stats.steps - start.steps >= budget {
                return self.report_since(start, StopReason::StepBudget, false);
            }
            let budget_left = budget - (self.stats.steps - start.steps);
            let chunk = interval.min(budget_left);
            let executed = self.run_steps(chunk);
            if executed < chunk {
                let stable = self.world.is_stable_scan();
                return self.report_since(start, StopReason::NoInteraction, stable);
            }
            interval = interval.saturating_mul(2);
        }
    }

    /// Runs until every node is halted (used by terminating protocols in which all nodes
    /// eventually halt), the step budget is exhausted, or the scheduler runs dry.
    pub fn run_until_all_halted(&mut self) -> RunReport {
        let report = self.run_until(|w| w.all_halted());
        self.fixup_halt_reason(report)
    }

    /// Runs until at least one node is halted (terminating protocols in which the unique
    /// leader detects termination), the step budget is exhausted, or the scheduler runs
    /// dry.
    pub fn run_until_any_halted(&mut self) -> RunReport {
        let report = self.run_until(|w| w.any_halted());
        self.fixup_halt_reason(report)
    }

    fn fixup_halt_reason(&self, mut report: RunReport) -> RunReport {
        if report.reason == StopReason::Predicate {
            report.reason = StopReason::AllHalted;
        }
        report
    }

    /// The current output shape (largest component of output-state nodes).
    #[must_use]
    pub fn output_shape(&self) -> Shape {
        self.world.output_shape()
    }

    fn report_since(
        &self,
        start: ExecutionStats,
        reason: StopReason,
        stabilized: bool,
    ) -> RunReport {
        RunReport {
            steps: self.stats.steps - start.steps,
            effective_steps: self.stats.effective_steps - start.effective_steps,
            reason,
            stabilized: stabilized || reason == StopReason::Stable,
            phases: self.obs.phase_profile(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::GreedyScheduler;
    use crate::{NodeId, Transition};
    use nc_geometry::Dir;

    /// Leader-driven line: the head grabs free nodes right-port-to-left-port (as in the
    /// paper's simplified spanning-line protocol); when the line has `target` nodes the
    /// head halts.
    struct ChainOf {
        target: usize,
    }

    #[derive(Clone, PartialEq, Debug)]
    enum S {
        Head(usize),
        Body,
        Free,
        Done,
    }

    impl Protocol for ChainOf {
        type State = S;

        fn initial_state(&self, node: NodeId, _n: usize) -> S {
            if node.index() == 0 {
                S::Head(1)
            } else {
                S::Free
            }
        }

        fn transition(
            &self,
            a: &S,
            pa: Dir,
            b: &S,
            pb: Dir,
            bonded: bool,
        ) -> Option<Transition<S>> {
            match (a, b) {
                (S::Head(k), S::Free) if !bonded && pa == Dir::Right && pb == Dir::Left => {
                    let next = if k + 1 == self.target {
                        S::Done
                    } else {
                        S::Head(k + 1)
                    };
                    Some(Transition {
                        a: S::Body,
                        b: next,
                        bond: true,
                    })
                }
                _ => None,
            }
        }

        fn is_halted(&self, state: &S) -> bool {
            matches!(state, S::Done)
        }
    }

    impl crate::SnapshotProtocol for ChainOf {
        fn encode_state(&self, state: &S, out: &mut crate::SnapshotWriter) {
            match state {
                S::Head(k) => {
                    out.u8(0);
                    out.u64(*k as u64);
                }
                S::Body => out.u8(1),
                S::Free => out.u8(2),
                S::Done => out.u8(3),
            }
        }

        fn decode_state(&self, r: &mut crate::SnapshotReader<'_>) -> crate::Result<S> {
            Ok(match r.u8()? {
                0 => {
                    let k = usize::try_from(r.u64()?).map_err(|_| CoreError::SnapshotCorrupt {
                        what: "chain head counter exceeds the platform word size",
                    })?;
                    S::Head(k)
                }
                1 => S::Body,
                2 => S::Free,
                3 => S::Done,
                _ => {
                    return Err(CoreError::SnapshotCorrupt {
                        what: "unknown chain state tag",
                    })
                }
            })
        }
    }

    #[test]
    fn run_until_stable_builds_the_chain() {
        let mut sim = Simulation::new(ChainOf { target: 5 }, SimulationConfig::new(5).with_seed(3));
        let report = sim.run_until_stable();
        assert!(report.stabilized);
        assert_eq!(report.reason, StopReason::Stable);
        assert!(report.steps >= report.effective_steps);
        assert!(sim.output_shape().is_line(5));
        assert_eq!(sim.stats().merges, 4);
    }

    #[test]
    fn run_until_any_halted_detects_termination() {
        let mut sim = Simulation::new(ChainOf { target: 4 }, SimulationConfig::new(6).with_seed(9));
        let report = sim.run_until_any_halted();
        assert_eq!(report.reason, StopReason::AllHalted);
        assert_eq!(sim.world().halted_nodes().len(), 1);
        // The chain has exactly `target` nodes even though the population is larger.
        let chain = sim.world().shape_of(sim.world().halted_nodes()[0], false);
        assert!(chain.is_line(4));
    }

    #[test]
    fn greedy_scheduler_fast_forwards() {
        let mut sim = Simulation::with_scheduler(
            ChainOf { target: 6 },
            SimulationConfig::new(6),
            GreedyScheduler,
        );
        let report = sim.run_until_stable();
        assert!(report.stabilized);
        // Greedy schedules only effective interactions.
        assert_eq!(report.steps, report.effective_steps);
        assert_eq!(report.effective_steps, 5);
    }

    #[test]
    fn step_budget_is_respected() {
        let mut sim = Simulation::new(
            ChainOf { target: 4 },
            SimulationConfig::new(4).with_seed(1).with_max_steps(3),
        );
        let report = sim.run_until(|w| w.all_halted());
        assert!(matches!(
            report.reason,
            StopReason::StepBudget | StopReason::Predicate
        ));
        assert!(report.steps <= 3);
    }

    #[test]
    fn single_node_population_runs_dry() {
        let mut sim = Simulation::new(ChainOf { target: 2 }, SimulationConfig::new(1));
        assert!(!sim.step());
        let report = sim.run_until_stable();
        assert_eq!(report.reason, StopReason::Stable);
    }

    /// Steps both simulations once and asserts their checkpoints stay byte-identical.
    fn lockstep_assert(
        reference: &mut Simulation<ChainOf, crate::scheduler::UniformScheduler>,
        resumed: &mut Simulation<ChainOf, crate::scheduler::UniformScheduler>,
        step: usize,
    ) {
        let a = reference.step();
        let b = resumed.step();
        assert_eq!(a, b, "step availability diverged at lockstep step {step}");
        assert_eq!(
            reference.checkpoint().expect("checkpoint").as_bytes(),
            resumed.checkpoint().expect("checkpoint").as_bytes(),
            "checkpoints diverged at lockstep step {step}"
        );
    }

    #[test]
    fn checkpoint_resume_round_trip_is_byte_identical() {
        for sampling in [SamplingMode::Adaptive, SamplingMode::Sharded] {
            let config = SimulationConfig::new(6)
                .with_seed(7)
                .with_sampling(sampling)
                .with_shards(2);
            let mut reference = Simulation::new(ChainOf { target: 6 }, config);
            for _ in 0..10 {
                reference.step();
            }
            let snapshot = reference.checkpoint().expect("checkpoint");
            let mut resumed = Simulation::resume(ChainOf { target: 6 }, &snapshot)
                .unwrap_or_else(|e| panic!("resume failed for {sampling:?}: {e}"));
            assert_eq!(
                reference.checkpoint().expect("checkpoint").as_bytes(),
                resumed.checkpoint().expect("checkpoint").as_bytes(),
                "resume is not a fixed point for {sampling:?}"
            );
            for step in 0..40 {
                lockstep_assert(&mut reference, &mut resumed, step);
            }
        }
    }

    #[test]
    fn resume_survives_round_trip_through_raw_bytes() {
        let mut sim = Simulation::new(ChainOf { target: 4 }, SimulationConfig::new(4).with_seed(2));
        sim.run_until_stable();
        let bytes = sim.checkpoint().expect("checkpoint").into_bytes();
        let snapshot = Snapshot::from_bytes(bytes).expect("sealed snapshot must validate");
        let resumed = Simulation::resume(ChainOf { target: 4 }, &snapshot).expect("resume");
        assert_eq!(resumed.stats(), sim.stats());
        assert_eq!(resumed.world().bond_count(), sim.world().bond_count());
    }

    #[test]
    fn checkpoint_with_oversized_protocol_name_is_a_typed_error() {
        /// A protocol whose name cannot fit the snapshot format's `u16` length
        /// prefix — the checkpoint must fail typed, never abort the caller.
        struct HugeName {
            name: String,
        }

        impl Protocol for HugeName {
            type State = u8;

            fn initial_state(&self, _node: NodeId, _n: usize) -> u8 {
                0
            }

            fn transition(
                &self,
                _a: &u8,
                _pa: Dir,
                _b: &u8,
                _pb: Dir,
                _bonded: bool,
            ) -> Option<Transition<u8>> {
                None
            }

            fn name(&self) -> &str {
                &self.name
            }
        }

        impl crate::SnapshotProtocol for HugeName {
            fn encode_state(&self, state: &u8, out: &mut crate::SnapshotWriter) {
                out.u8(*state);
            }

            fn decode_state(&self, r: &mut crate::SnapshotReader<'_>) -> crate::Result<u8> {
                r.u8()
            }
        }

        let protocol = HugeName {
            name: "x".repeat(usize::from(u16::MAX) + 1),
        };
        let sim = Simulation::new(protocol, SimulationConfig::new(2).with_seed(1));
        assert_eq!(
            sim.checkpoint().unwrap_err(),
            CoreError::SnapshotCorrupt {
                what: "string too long for a u16 length prefix"
            }
        );
    }

    #[test]
    fn try_run_until_stable_reports_lifetime_steps_across_resume() {
        let config = SimulationConfig::new(6).with_seed(5).with_max_steps(3);
        let mut sim = Simulation::new(ChainOf { target: 6 }, config);
        let err = sim.try_run_until_stable().unwrap_err();
        assert_eq!(err, CoreError::StepBudgetExhausted { steps: 3 });

        let snapshot = sim.checkpoint().expect("checkpoint");
        let mut resumed = Simulation::resume(ChainOf { target: 6 }, &snapshot).expect("resume");
        let err = resumed.try_run_until_stable().unwrap_err();
        // The budget counts per call, but the carried step count is the lifetime total:
        // 3 steps before the crash plus 3 after the resume.
        assert_eq!(err, CoreError::StepBudgetExhausted { steps: 6 });
    }

    /// The trace a pinned run emits after its first `cut` driver steps. With
    /// `resume`, the run is checkpointed at the cut and continued from the snapshot
    /// with telemetry attached only after the resume.
    fn traced_tail(sampling: SamplingMode, cut: usize, resume: bool) -> Vec<nc_obs::TraceEvent> {
        let config = SimulationConfig::new(8)
            .with_seed(42)
            .with_sampling(sampling);
        let mut sim = Simulation::new(ChainOf { target: 8 }, config);
        if !resume {
            sim.set_telemetry(Telemetry::enabled());
        }
        for _ in 0..cut {
            sim.step();
        }
        let before = sim.telemetry().trace_events().len();
        if resume {
            let snapshot = sim.checkpoint().expect("checkpoint");
            sim = Simulation::resume(ChainOf { target: 8 }, &snapshot).expect("resume");
            sim.set_telemetry(Telemetry::enabled());
        }
        sim.run_until_stable();
        sim.telemetry().trace_events().split_off(before)
    }

    #[test]
    fn trace_after_a_resume_matches_the_uninterrupted_run() {
        for sampling in [SamplingMode::Adaptive, SamplingMode::Sharded] {
            for cut in [1, 3, 6] {
                let fresh = traced_tail(sampling, cut, false);
                assert!(!fresh.is_empty(), "pinned run must emit events");
                assert_eq!(
                    fresh,
                    traced_tail(sampling, cut, true),
                    "trace diverged after a resume at driver step {cut} ({sampling:?})"
                );
            }
        }
    }

    #[test]
    fn telemetry_does_not_perturb_the_trajectory() {
        let config = SimulationConfig::new(6).with_seed(7);
        let mut plain = Simulation::new(ChainOf { target: 6 }, config);
        let mut traced = Simulation::new(ChainOf { target: 6 }, config);
        traced.set_telemetry(Telemetry::enabled());
        let a = plain.run_until_stable();
        let mut b = traced.run_until_stable();
        assert!(b.phases.get(Phase::Sample).calls > 0);
        b.phases = PhaseProfile::default();
        assert_eq!(a, b);
        assert_eq!(plain.stats(), traced.stats());
    }

    #[test]
    fn run_until_predicate_counts_from_current_call() {
        let mut sim = Simulation::new(
            ChainOf { target: 3 },
            SimulationConfig::new(3).with_seed(11),
        );
        let first = sim.run_until(|w| w.bond_count() >= 1);
        assert_eq!(first.reason, StopReason::Predicate);
        let second = sim.run_until(|w| w.bond_count() >= 2);
        assert_eq!(second.reason, StopReason::Predicate);
        assert_eq!(sim.stats().steps, first.steps + second.steps);
    }
}
