//! Schedulers: who interacts next.
//!
//! The paper's fairness condition is satisfied with probability 1 by the *uniform random
//! scheduler*, which at every step selects independently and uniformly at random one of
//! the interactions permitted by the current configuration. That scheduler is also the
//! probabilistic assumption behind every "with high probability" statement, so it is the
//! default here. A greedy deterministic scheduler is provided for fast-forwarding tests.
//!
//! # Sampling strategies
//!
//! Two strategies realise the same uniform distribution over permissible pairs:
//!
//! * **Rejection sampling** (the original implementation, kept verbatim behind
//!   [`SamplingMode::Legacy`]): draw an unordered node-port pair uniformly from all
//!   `(n·k choose 2)` candidates and redraw until a permissible one is found.
//!   Conditioning a uniform distribution on the permissible subset yields exactly the
//!   uniform distribution over permissible pairs. Cheap while the permissible set is
//!   dense (early phases, many free nodes), but the expected number of redraws is
//!   `(n·k)² / |permissible|`, which degenerates to `Θ(n·k²)` per step late in a
//!   construction when almost everything is bonded or halted.
//! * **Enumerated sampling**: ask the world for the exact permissible set
//!   ([`crate::World::enumerate_permissible`]) and draw one element with a single
//!   `gen_range`. One enumeration is `O(n·k)` plus the cross-component pairs, and the
//!   result is cached until the configuration version changes, so late phases cost
//!   `O(1)` per step. The drawn distribution is uniform over the same set, so every
//!   "w.h.p." statement is unaffected.
//!
//! [`SamplingMode::Adaptive`] starts with rejection sampling and switches to enumerated
//! sampling for a configuration once a draw takes more than
//! [`UniformScheduler::SWITCH_THRESHOLD`] rejections — i.e. exactly when the acceptance
//! rate has collapsed. The modes generally consume the seeded RNG stream differently,
//! so runs are reproducible *per mode*; [`SamplingMode::Legacy`] reproduces the
//! original sampler byte for byte, which the equivalence suite uses as its reference.
//!
//! # Sharded sampling and the geometric-jump invariant
//!
//! [`SamplingMode::Sharded`] exploits that the configuration is *frozen* between
//! effective interactions: ineffective selections change nothing (by definition), so
//! consecutive selections are i.i.d. uniform draws over one fixed permissible set. In
//! such a sequence,
//!
//! 1. the index `T` of the first *effective* selection is geometrically distributed
//!    with success probability `p = |effective| / |permissible|`, and
//! 2. the value of that selection is uniform over the effective subset, independent
//!    of `T`.
//!
//! Both facts are elementary conditioning: each draw is effective independently with
//! probability `p`, and conditioned on being effective it is uniform over the
//! effective subset. The sampler therefore draws `T` directly
//! ([`crate::rng::geometric`]), credits the `T − 1` skipped ineffective selections to
//! the step counters, and draws one uniform *effective* pair — producing exactly the
//! same distribution over configuration trajectories **and** step counts as the
//! one-at-a-time sampler, while doing `O(1)` work per effective step instead of
//! `O(|permissible| / |effective|)`. Fairness and every "w.h.p." statement of the
//! paper are therefore untouched: the realized executions are distributed identically.
//!
//! The counts `P` and `E` come from the incrementally maintained aggregate of the
//! permissible-pair index (`World::aggregate_pair_counts`, `O(1)` per
//! version); the effective pair is one uniform index over `0..E` resolved through the
//! index's canonical walk. The draws come from per-selection substreams
//! ([`crate::rng::substream`], keyed by the selection ordinal — see there for why that
//! keying makes sliced and resumed executions identical to uninterrupted ones).
//!
//! A step allowance can end inside a jump. The sampler then credits the allowance and
//! keeps the rest of the jump; the next call on the same configuration lands it,
//! re-deriving the effective-pair draw from the same substream, so a budgeted run
//! that is continued equals an unbudgeted run step for step. If the configuration
//! changed in between, the rest is dropped and a fresh jump is drawn from the next
//! substream — exact in law, because the geometric is memoryless.
//!
//! Two situations make the index unusable and fall back to the adaptive strategy,
//! which realises the same per-step distribution, just more slowly: a protocol whose
//! live state diversity overflows the index's class table (permanent fallback), and
//! configurations with two or more multi-node components whose cross product exceeds
//! the enumeration budget (per-version fallback).

use crate::{Interaction, Protocol, World};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Top bit of the snapshot's pending-jump word (the config's last `u64`): when set,
/// the low 63 bits hold the remaining length of a jump cut short by a step
/// allowance. Words without it mean no pending jump — 0, and the small speculation
/// window that snapshots written before that mode's retirement stored there.
const PENDING_JUMP_TAG: u64 = 1 << 63;

/// How the uniform scheduler realises the uniform distribution over permissible pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SamplingMode {
    /// Rejection sampling with an adaptive fallback to enumerated sampling when the
    /// acceptance rate collapses. Same distribution, amortised `O(1)` draws per step in
    /// sparse configurations.
    #[default]
    Adaptive,
    /// Pure rejection sampling, byte-identical to the original implementation for a
    /// given seed. Used by the equivalence suite and available for exact replays.
    Legacy,
    /// Geometric-jump sampling over the permissible-pair index: the number of
    /// consecutive ineffective selections on a frozen configuration is drawn in one
    /// shot (`Geometric(E/P)`; see the module docs) and credited to the step counters,
    /// then one uniform *effective* pair is returned. The counts come from the `O(1)`
    /// running aggregate, and per-selection RNG substreams make the draws a function
    /// of the selection ordinal. (The name predates the removal of the sharded index
    /// layout; it is kept because service specs and snapshots name the mode.) Falls back to [`SamplingMode::Adaptive`] behaviour where the index
    /// cannot serve exact counts.
    Sharded,
}

impl SamplingMode {
    /// Stable one-byte tag of this mode in the snapshot format (independent of the
    /// enum's declaration order, which is not a serialization contract). Tags 2 and 4
    /// belonged to the retired batched and speculative modes and are never reused.
    pub(crate) fn snapshot_tag(self) -> u8 {
        match self {
            SamplingMode::Adaptive => 0,
            SamplingMode::Legacy => 1,
            SamplingMode::Sharded => 3,
        }
    }

    /// Inverse of [`SamplingMode::snapshot_tag`].
    ///
    /// # Errors
    /// [`crate::CoreError::SnapshotCorrupt`] on a retired (2, 4) or unknown tag.
    pub(crate) fn from_snapshot_tag(tag: u8) -> crate::Result<SamplingMode> {
        let what = match tag {
            0 => return Ok(SamplingMode::Adaptive),
            1 => return Ok(SamplingMode::Legacy),
            3 => return Ok(SamplingMode::Sharded),
            2 | 4 => "retired sampling mode (batched/speculative)",
            _ => "unknown sampling-mode tag",
        };
        Err(crate::CoreError::SnapshotCorrupt { what })
    }
}

/// A scheduler selects the next permissible interaction of a configuration.
pub trait Scheduler {
    /// Selects the next interaction, or `None` when no permissible pair exists (which can
    /// only happen for a population of a single node).
    fn next_interaction<P: Protocol>(&mut self, world: &World<P>) -> Option<Interaction>;

    /// Like [`Scheduler::next_interaction`], but consuming at most `max_steps`
    /// scheduler selections (including the returned one). A batching scheduler whose
    /// sampled jump would overshoot the allowance credits exactly `max_steps` skipped
    /// selections (drained via [`Scheduler::drain_skipped_steps`]) and returns `None`
    /// — the faithful behaviour of a step-budgeted run that spent its whole remaining
    /// budget on ineffective selections — and keeps the rest of the jump for the next
    /// call, so a budgeted run that is continued equals an unbudgeted one.
    /// Non-batching schedulers take one selection per call and ignore the bound.
    fn next_interaction_bounded<P: Protocol>(
        &mut self,
        world: &World<P>,
        max_steps: u64,
    ) -> Option<Interaction> {
        let _ = max_steps;
        self.next_interaction(world)
    }

    /// Takes (and resets) the number of scheduler selections that were credited in
    /// bulk — skipped ineffective selections of a batching scheduler — since the last
    /// drain. The caller must add them to its step accounting after every
    /// `next_interaction*` call.
    fn drain_skipped_steps(&mut self) -> u64 {
        0
    }
}

/// The uniform random scheduler of the paper. See the module docs for the two sampling
/// strategies.
#[derive(Debug)]
pub struct UniformScheduler {
    rng: StdRng,
    mode: SamplingMode,
    /// The base seed (kept for deriving the sharded mode's per-selection substreams).
    seed: u64,
    /// Selection ordinal of the sharded mode: each jump (and each selection of a
    /// stable configuration) draws from the substream keyed by this counter, which
    /// advances once the jump lands on its effective selection. A jump cut short by
    /// the step allowance keeps its ordinal, so the continuation re-derives the same
    /// effective-pair draw.
    sharded_draws: u64,
    /// Selections still to go of a jump cut short by the step allowance, including
    /// its effective one (0: none pending). Only valid while the configuration is at
    /// `jump_version`; a changed configuration drops it and moves to a fresh ordinal,
    /// which the memorylessness of the geometric keeps exact.
    jump_left: u64,
    jump_version: u64,
    /// Safety valve: give up after this many rejected samples (only reachable for n = 1,
    /// or in legacy mode for configurations with a vanishing permissible set).
    max_attempts: u32,
    /// Whether the acceptance rate has collapsed (enumerate instead of rejecting).
    collapsed: bool,
    /// Cached enumerated permissible set, valid for `cache_version`.
    cache: Vec<Interaction>,
    cache_version: u64,
    cache_valid: bool,
    /// Configuration version for which enumeration was refused (cross-component budget
    /// exceeded); pure rejection is used without re-probing until the version changes.
    refused_version: Option<u64>,
    /// Skipped ineffective selections credited by geometric jumps, awaiting a drain.
    pending_skips: u64,
    /// Configuration version the jump counts below were computed for.
    batch_version: u64,
    batch_valid: bool,
    /// Sticky: the pair index overflowed its class table — sharded mode permanently
    /// delegates to the adaptive strategy.
    batch_overflow: bool,
    /// This-version fallback: the multi×multi cross enumeration exceeded its budget.
    batch_fallback: bool,
    /// Exact permissible / effective pair counts of the frozen configuration
    /// (base classes from the incremental index + the enumerated multi×multi pairs).
    batch_permissible: u64,
    batch_effective: u64,
    /// Enumerated multi×multi cross pairs of the frozen configuration.
    batch_mm: Vec<Interaction>,
    /// The effective subset of `batch_mm`.
    batch_mm_eff: Vec<Interaction>,
}

impl UniformScheduler {
    /// Rejections within one draw before the adaptive mode switches to enumeration.
    /// Rejection sampling needs `(n·k)² / |permissible|` draws in expectation, so hitting
    /// this threshold means the permissible set occupies less than roughly 1/256 of the
    /// candidate space — exactly the regime where enumerating it is cheap.
    pub const SWITCH_THRESHOLD: u32 = 256;

    /// Budget for the cross-component part of an enumeration, in node pairs, as a
    /// multiple of the population size. Above it the sampler stays with rejection (a
    /// large cross-component universe implies a dense permissible set anyway). Shared
    /// with the world's stability fast path so both agree on affordability.
    const CROSS_BUDGET_PER_NODE: usize = crate::world::CROSS_BUDGET_PER_NODE;

    /// Creates a scheduler from a seed with the default adaptive sampling mode.
    #[must_use]
    pub fn seeded(seed: u64) -> UniformScheduler {
        UniformScheduler::with_mode(seed, SamplingMode::default())
    }

    /// Creates a scheduler from a seed with an explicit sampling mode.
    #[must_use]
    pub fn with_mode(seed: u64, mode: SamplingMode) -> UniformScheduler {
        UniformScheduler {
            rng: crate::rng::seeded(seed),
            mode,
            seed,
            sharded_draws: 0,
            jump_left: 0,
            jump_version: 0,
            max_attempts: 10_000_000,
            collapsed: false,
            cache: Vec::new(),
            cache_version: 0,
            cache_valid: false,
            refused_version: None,
            pending_skips: 0,
            batch_version: 0,
            batch_valid: false,
            batch_overflow: false,
            batch_fallback: false,
            batch_permissible: 0,
            batch_effective: 0,
            batch_mm: Vec::new(),
            batch_mm_eff: Vec::new(),
        }
    }

    /// Inert shim returning `self`; only caller is `perfbench`, drop at its next revision.
    #[must_use]
    pub fn with_speculation(self, _k: usize) -> UniformScheduler {
        self
    }

    /// Inert no-op shim; only caller is `perfbench`, drop at its next revision.
    pub fn prepare<P: Protocol>(&mut self, _: &mut World<P>) {}

    /// Creates a scheduler from ambient entropy (see [`crate::rng::from_entropy`]).
    #[must_use]
    pub fn from_entropy() -> UniformScheduler {
        UniformScheduler::seeded(rand::entropy_seed())
    }

    /// The sampling mode this scheduler uses.
    #[must_use]
    pub fn mode(&self) -> SamplingMode {
        self.mode
    }

    /// Access to the underlying random number generator (used by protocols that need
    /// auxiliary randomness in experiments).
    pub fn rng(&mut self) -> &mut impl RngCore {
        &mut self.rng
    }

    /// One uniform draw from the full candidate space, or `None` if it is not
    /// permissible (a rejection). Identical to one iteration of the original sampler.
    fn draw<P: Protocol>(&mut self, world: &World<P>) -> Option<Interaction> {
        let n = world.len();
        let ports = world.dim().dirs();
        let a = self.rng.gen_range(0..n);
        let b = self.rng.gen_range(0..n);
        if a == b {
            return None;
        }
        let pa = ports[self.rng.gen_range(0..ports.len())];
        let pb = ports[self.rng.gen_range(0..ports.len())];
        world.interaction(
            crate::NodeId::new(a as u32),
            pa,
            crate::NodeId::new(b as u32),
            pb,
        )
    }

    fn next_legacy<P: Protocol>(&mut self, world: &World<P>) -> Option<Interaction> {
        for _ in 0..self.max_attempts {
            if let Some(interaction) = self.draw(world) {
                return Some(interaction);
            }
        }
        None
    }

    fn next_adaptive<P: Protocol>(&mut self, world: &World<P>) -> Option<Interaction> {
        let version = world.version();
        if self.cache_valid && self.cache_version == version {
            return self.sample_cached();
        }
        self.cache_valid = false;
        if self.refused_version == Some(version) {
            // Enumeration was already refused for this exact configuration: rejection
            // sampling is the chosen tool until something changes.
            return self.next_legacy(world);
        }
        self.refused_version = None;
        if !self.collapsed {
            for _ in 0..Self::SWITCH_THRESHOLD {
                if let Some(interaction) = self.draw(world) {
                    return Some(interaction);
                }
            }
            self.collapsed = true;
        }
        match world.enumerate_permissible(Self::CROSS_BUDGET_PER_NODE * world.len()) {
            Some(pairs) => {
                // If the permissible set turns out dense after all, rejection would be
                // cheap again: leave collapsed mode once the configuration changes.
                let ports = world.dim().dirs().len();
                let universe = (world.len() * ports).pow(2) / 2;
                if pairs.len().saturating_mul(64) >= universe {
                    self.collapsed = false;
                }
                self.cache = pairs;
                self.cache_version = version;
                self.cache_valid = true;
                self.sample_cached()
            }
            None => {
                // Enumeration over budget: the cross-component universe is large, so
                // rejection sampling is the right tool while this configuration lasts.
                self.collapsed = false;
                self.refused_version = Some(version);
                self.next_legacy(world)
            }
        }
    }

    fn sample_cached(&mut self) -> Option<Interaction> {
        if self.cache.is_empty() {
            return None;
        }
        let pick = self.rng.gen_range(0..self.cache.len());
        Some(self.cache[pick])
    }

    /// Recomputes the exact pair counts for the current frozen configuration: the base
    /// classes come from the `O(1)` running aggregate of the incremental
    /// permissible-pair index; multi×multi cross pairs (empty in single-growth
    /// workloads) are enumerated under the cross budget.
    fn refresh_batch<P: Protocol>(&mut self, world: &World<P>, version: u64) {
        self.batch_valid = false;
        self.batch_fallback = false;
        self.batch_mm.clear();
        self.batch_mm_eff.clear();
        let Some(summary) = world.aggregate_pair_counts() else {
            self.batch_overflow = true;
            return;
        };
        if summary.multi_components >= 2 {
            match world.enumerate_cross_multi(world.cross_multi_budget()) {
                Some(list) => {
                    for (interaction, effective) in list {
                        if effective {
                            self.batch_mm_eff.push(interaction);
                        }
                        self.batch_mm.push(interaction);
                    }
                }
                None => {
                    self.batch_fallback = true;
                }
            }
        }
        self.batch_permissible = summary.permissible_base + self.batch_mm.len() as u64;
        self.batch_effective = summary.effective_base + self.batch_mm_eff.len() as u64;
        self.batch_version = version;
        self.batch_valid = true;
    }

    /// One sharded selection: sample the geometric jump to the next effective
    /// selection, credit the skipped ineffective ones, and return a uniform effective
    /// pair — or, within `max_steps` of budget, credit the allowance and keep the
    /// rest of the jump for the next call. Served from the `O(1)` aggregate counts,
    /// drawing jump + index from the per-selection substream; see the module docs for
    /// why this realises the exact per-step uniform distribution.
    fn next_sharded<P: Protocol>(
        &mut self,
        world: &World<P>,
        max_steps: u64,
    ) -> Option<Interaction> {
        if self.batch_overflow {
            return self.next_adaptive(world);
        }
        let version = world.version();
        if !self.batch_valid || self.batch_version != version {
            self.refresh_batch(world, version);
            if self.batch_overflow {
                return self.next_adaptive(world);
            }
        }
        if self.batch_fallback {
            return self.next_adaptive(world);
        }
        if self.batch_permissible == 0 {
            return None;
        }
        if self.jump_left > 0 {
            if self.jump_version == version && self.batch_effective > 0 {
                return self.continue_jump(world, max_steps);
            }
            // The configuration changed under the interrupted jump: by memorylessness
            // a fresh jump from a fresh substream is exact.
            self.jump_left = 0;
            self.sharded_draws += 1;
        }
        let mut sub = crate::rng::substream(self.seed, self.sharded_draws);
        if self.batch_effective == 0 {
            // The configuration is stable: every further selection is ineffective, so
            // there is no effective selection to jump to. Draw single uniform
            // permissible selections, one per call, exactly like the other modes.
            self.sharded_draws += 1;
            let idx = sub.gen_range(0..self.batch_permissible);
            return Some(self.pick_permissible(world, idx));
        }
        let p = self.batch_effective as f64 / self.batch_permissible as f64;
        let jump = crate::rng::geometric(&mut sub, p);
        self.land_jump(world, sub, jump, max_steps)
    }

    /// Resumes the jump an earlier call cut short: re-derives its substream (the
    /// geometric draw is repeated only to reach the same stream position, its value
    /// is the original jump's) and lands the remaining `jump_left` selections.
    #[cold]
    fn continue_jump<P: Protocol>(
        &mut self,
        world: &World<P>,
        max_steps: u64,
    ) -> Option<Interaction> {
        let mut sub = crate::rng::substream(self.seed, self.sharded_draws);
        let p = self.batch_effective as f64 / self.batch_permissible as f64;
        let _ = crate::rng::geometric(&mut sub, p);
        let jump = std::mem::take(&mut self.jump_left);
        self.land_jump(world, sub, jump, max_steps)
    }

    /// Credits a jump of `jump` selections whose draws come from `sub`: past the
    /// `max_steps` allowance it credits the allowance and keeps the rest pending;
    /// otherwise it credits the `jump − 1` skips and returns a uniform effective pair.
    fn land_jump<P: Protocol>(
        &mut self,
        world: &World<P>,
        mut sub: StdRng,
        jump: u64,
        max_steps: u64,
    ) -> Option<Interaction> {
        if jump > max_steps {
            // The whole remaining step budget is spent on ineffective selections.
            self.pending_skips += max_steps;
            self.jump_left = jump - max_steps;
            self.jump_version = world.version();
            return None;
        }
        self.sharded_draws += 1;
        self.pending_skips += jump - 1;
        let idx = sub.gen_range(0..self.batch_effective);
        Some(self.pick_effective(world, idx))
    }

    fn pick_effective<P: Protocol>(&mut self, world: &World<P>, idx: u64) -> Interaction {
        let base = self.batch_effective - self.batch_mm_eff.len() as u64;
        if idx < base {
            world.sample_effective_base(idx)
        } else {
            self.batch_mm_eff[(idx - base) as usize]
        }
    }

    fn pick_permissible<P: Protocol>(&mut self, world: &World<P>, idx: u64) -> Interaction {
        let base = self.batch_permissible - self.batch_mm.len() as u64;
        if idx < base {
            world.sample_permissible_base(idx)
        } else {
            self.batch_mm[(idx - base) as usize]
        }
    }

    // --- snapshots (see `crate::snapshot` for the format and the exactness notes) ------

    /// The snapshot's pending-jump word: the remaining length of a jump cut short,
    /// under [`PENDING_JUMP_TAG`], or 0 when none is pending. (A remainder past
    /// 2⁶³ − 1 selections is clamped; no population the index can hold draws one.)
    pub(crate) fn pending_jump_word(&self) -> u64 {
        if self.jump_left == 0 {
            0
        } else {
            PENDING_JUMP_TAG | self.jump_left.min(PENDING_JUMP_TAG - 1)
        }
    }

    /// Encodes the resumability-critical scheduler state: the RNG stream position,
    /// the sharded substream ordinal, the sticky adaptive/sharded flags, whether the
    /// adaptive enumeration cache is warm for the *current* world version, and any
    /// undrained bulk-credited skips. The cache contents and the per-version jump
    /// counts are deliberately not persisted: both are deterministically re-derived
    /// without consuming randomness.
    pub(crate) fn snapshot_encode<P: Protocol>(
        &self,
        world: &World<P>,
        out: &mut crate::SnapshotWriter,
    ) {
        for word in self.rng.state() {
            out.u64(word);
        }
        out.u64(self.sharded_draws);
        out.bool(self.collapsed);
        out.bool(self.batch_overflow);
        // A warm enumeration cache means the next adaptive draw costs one RNG draw
        // (`sample_cached`); a cold resume would instead probe up to SWITCH_THRESHOLD
        // draws first and diverge the stream. The flag is persisted, the contents
        // re-enumerated on resume (deterministic, consumes no randomness).
        out.bool(self.cache_valid && self.cache_version == world.version());
        out.u64(self.pending_skips);
    }

    /// Decodes the counterpart of [`UniformScheduler::snapshot_encode`], rebuilding a
    /// scheduler that continues the interrupted RNG streams exactly. `seed`, `mode`
    /// and `pending_jump` (see [`UniformScheduler::pending_jump_word`]) come from the
    /// snapshot's persisted configuration.
    ///
    /// # Errors
    /// [`crate::CoreError::SnapshotTruncated`] or [`crate::CoreError::SnapshotCorrupt`].
    pub(crate) fn snapshot_decode<P: Protocol>(
        seed: u64,
        mode: SamplingMode,
        pending_jump: u64,
        world: &World<P>,
        r: &mut crate::SnapshotReader<'_>,
    ) -> crate::Result<UniformScheduler> {
        let jump_left = if pending_jump & PENDING_JUMP_TAG == 0 {
            0
        } else {
            let left = pending_jump & !PENDING_JUMP_TAG;
            if left == 0 || mode != SamplingMode::Sharded {
                return Err(crate::CoreError::SnapshotCorrupt {
                    what: "pending jump that is empty or outside the jump sampler",
                });
            }
            left
        };
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64()?;
        }
        if state == [0; 4] {
            // Unreachable for a genuine xoshiro stream; rejecting keeps
            // `StdRng::from_state`'s zero-state fallback out of resumed runs.
            return Err(crate::CoreError::SnapshotCorrupt {
                what: "scheduler RNG state is all zero",
            });
        }
        let sharded_draws = r.u64()?;
        let collapsed = r.bool()?;
        let batch_overflow = r.bool()?;
        let cache_warm = r.bool()?;
        let pending_skips = r.u64()?;
        let mut scheduler = UniformScheduler::with_mode(seed, mode);
        scheduler.rng = StdRng::from_state(state);
        scheduler.sharded_draws = sharded_draws;
        scheduler.collapsed = collapsed;
        scheduler.batch_overflow = batch_overflow;
        scheduler.pending_skips = pending_skips;
        scheduler.jump_left = jump_left;
        scheduler.jump_version = world.version();
        if cache_warm {
            scheduler.warm_cache(world)?;
        }
        Ok(scheduler)
    }

    /// Repopulates the adaptive enumeration cache for the current world version by
    /// re-running the deterministic enumeration (no randomness consumed) — the resume
    /// half of the warm-cache flag persisted by [`UniformScheduler::snapshot_encode`].
    fn warm_cache<P: Protocol>(&mut self, world: &World<P>) -> crate::Result<()> {
        let version = world.version();
        match world.enumerate_permissible(Self::CROSS_BUDGET_PER_NODE * world.len()) {
            Some(pairs) => {
                self.cache = pairs;
                self.cache_version = version;
                self.cache_valid = true;
                Ok(())
            }
            None => Err(crate::CoreError::SnapshotCorrupt {
                what: "warm enumeration cache claimed for an over-budget configuration",
            }),
        }
    }
}

impl Scheduler for UniformScheduler {
    fn next_interaction<P: Protocol>(&mut self, world: &World<P>) -> Option<Interaction> {
        self.next_interaction_bounded(world, u64::MAX)
    }

    fn next_interaction_bounded<P: Protocol>(
        &mut self,
        world: &World<P>,
        max_steps: u64,
    ) -> Option<Interaction> {
        if world.len() < 2 || max_steps == 0 {
            return None;
        }
        match self.mode {
            SamplingMode::Legacy => self.next_legacy(world),
            SamplingMode::Adaptive => self.next_adaptive(world),
            SamplingMode::Sharded => self.next_sharded(world, max_steps),
        }
    }

    fn drain_skipped_steps(&mut self) -> u64 {
        std::mem::take(&mut self.pending_skips)
    }
}

/// A deterministic scheduler that always picks an *effective* interaction if one exists:
/// the first pair of the permissible-pair index's canonical effective walk
/// ([`World::find_effective_interaction`]), so greedy executions are a function of the
/// configuration. Useful to fast-forward constructions in unit tests where the probabilistic
/// schedule is irrelevant; it is fair on every execution it completes because it only
/// stops when no effective interaction remains.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyScheduler;

impl Scheduler for GreedyScheduler {
    fn next_interaction<P: Protocol>(&mut self, world: &World<P>) -> Option<Interaction> {
        world.find_effective_interaction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Transition};
    use nc_geometry::Dir;

    struct Pairing;

    #[derive(Clone, PartialEq, Debug)]
    enum S {
        Single,
        Paired,
    }

    impl Protocol for Pairing {
        type State = S;

        fn initial_state(&self, _node: NodeId, _n: usize) -> S {
            S::Single
        }

        fn transition(
            &self,
            a: &S,
            _pa: Dir,
            b: &S,
            _pb: Dir,
            bonded: bool,
        ) -> Option<Transition<S>> {
            if !bonded && *a == S::Single && *b == S::Single {
                Some(Transition {
                    a: S::Paired,
                    b: S::Paired,
                    bond: true,
                })
            } else {
                None
            }
        }
    }

    #[test]
    fn uniform_scheduler_is_reproducible() {
        for mode in [SamplingMode::Adaptive, SamplingMode::Legacy] {
            let world = World::new(Pairing, 6);
            let mut s1 = UniformScheduler::with_mode(42, mode);
            let mut s2 = UniformScheduler::with_mode(42, mode);
            for _ in 0..20 {
                assert_eq!(s1.next_interaction(&world), s2.next_interaction(&world));
            }
        }
    }

    #[test]
    fn adaptive_and_legacy_agree_before_the_switch() {
        // On a dense configuration the adaptive sampler never collapses, so it consumes
        // the seeded stream exactly like the legacy sampler.
        let world = World::new(Pairing, 8);
        let mut legacy = UniformScheduler::with_mode(9, SamplingMode::Legacy);
        let mut adaptive = UniformScheduler::with_mode(9, SamplingMode::Adaptive);
        for _ in 0..50 {
            assert_eq!(
                legacy.next_interaction(&world),
                adaptive.next_interaction(&world)
            );
        }
    }

    #[test]
    fn uniform_scheduler_returns_none_for_singleton_population() {
        let world = World::new(Pairing, 1);
        let mut s = UniformScheduler::seeded(1);
        assert_eq!(s.next_interaction(&world), None);
    }

    #[test]
    fn uniform_scheduler_only_returns_permissible_pairs() {
        for mode in [SamplingMode::Adaptive, SamplingMode::Legacy] {
            let mut world = World::new(Pairing, 8);
            let mut s = UniformScheduler::with_mode(7, mode);
            for _ in 0..200 {
                let interaction = s.next_interaction(&world).expect("pairs exist");
                assert!(world
                    .permissibility(interaction.a, interaction.pa, interaction.b, interaction.pb)
                    .is_some());
                world.apply(&interaction);
                assert!(world.check_invariants());
            }
        }
    }

    /// A head absorbs free nodes right-port-to-left-port into one straight chain.
    struct Chain;

    #[derive(Clone, PartialEq, Debug)]
    enum C {
        Head,
        Body,
        Free,
    }

    impl Protocol for Chain {
        type State = C;

        fn initial_state(&self, node: NodeId, _n: usize) -> C {
            if node.index() == 0 {
                C::Head
            } else {
                C::Free
            }
        }

        fn transition(
            &self,
            a: &C,
            pa: Dir,
            b: &C,
            _pb: Dir,
            bonded: bool,
        ) -> Option<Transition<C>> {
            if !bonded && *a == C::Head && pa == Dir::Right && *b == C::Free {
                Some(Transition {
                    a: C::Body,
                    b: C::Head,
                    bond: true,
                })
            } else {
                None
            }
        }
    }

    #[test]
    fn enumerated_mode_kicks_in_on_sparse_configurations() {
        // A complete 16-node chain is a single component whose only permissible pairs
        // are the 15 bonded ones: acceptance ≈ 15 / 2016, so a few hundred draws push
        // the adaptive sampler into enumerated mode, which must keep producing exactly
        // the bonded pairs (the uniform distribution over the permissible set).
        let n = 16;
        let mut world = World::new(Chain, n);
        for k in 1..n as u32 {
            let i = world
                .interaction(NodeId::new(k - 1), Dir::Right, NodeId::new(k), Dir::Left)
                .expect("chain step is permissible");
            assert!(world.apply(&i).effective);
        }
        let mut s = UniformScheduler::seeded(3);
        let mut bonded_seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            let interaction = s.next_interaction(&world).expect("bonded pairs remain");
            assert!(matches!(
                interaction.permissibility,
                crate::Permissibility::Bonded
            ));
            bonded_seen.insert((
                interaction.a.min(interaction.b),
                interaction.a.max(interaction.b),
            ));
        }
        assert!(s.collapsed || s.cache_valid, "sampler should have switched");
        assert_eq!(
            bonded_seen.len(),
            n - 1,
            "every bonded pair must be reachable"
        );
    }

    #[test]
    fn a_cut_jump_continues_on_its_configuration_and_drops_on_a_new_one() {
        // 15 effective pairs among ~2000 permissible ones: jumps of ~130 selections.
        let mut world = World::new(Chain, 16);
        let mut whole = UniformScheduler::with_mode(5, SamplingMode::Sharded);
        let expected = whole.next_interaction(&world);
        let expected_skips = whole.drain_skipped_steps();
        assert!(
            expected_skips > 0,
            "the pinned seed must draw a jump to cut"
        );

        // Cut at every selection, the jump lands on the same pair after the same skips.
        let mut cut = UniformScheduler::with_mode(5, SamplingMode::Sharded);
        let mut skips = 0;
        let landed = loop {
            let picked = cut.next_interaction_bounded(&world, 1);
            skips += cut.drain_skipped_steps();
            if picked.is_some() {
                break picked;
            }
            assert_eq!(cut.sharded_draws, 0, "a cut jump keeps its ordinal");
        };
        assert_eq!((landed, skips), (expected, expected_skips));
        assert_eq!((cut.sharded_draws, cut.jump_left), (1, 0));

        // A configuration change drops the rest and draws from the next ordinal.
        assert_eq!(cut.next_interaction_bounded(&world, 1), None);
        assert!(cut.jump_left > 0);
        let step = world
            .find_effective_interaction()
            .expect("the chain can grow");
        assert!(world.apply(&step).effective);
        let picked = cut.next_interaction(&world).expect("pairs exist");
        assert_eq!((cut.sharded_draws, cut.jump_left), (3, 0));
        assert!(world
            .permissibility(picked.a, picked.pa, picked.b, picked.pb)
            .is_some());
    }

    #[test]
    fn greedy_scheduler_finds_effective_until_stable() {
        let mut world = World::new(Pairing, 6);
        let mut greedy = GreedyScheduler;
        let mut effective = 0;
        while let Some(i) = greedy.next_interaction(&world) {
            let outcome = world.apply(&i);
            assert!(outcome.effective);
            effective += 1;
            assert!(effective <= 3, "at most n/2 pairings possible");
        }
        assert_eq!(effective, 3);
        assert!(world.is_stable());
    }
}
