//! The `Telemetry` handle: the single object threaded through the simulator.
//!
//! A handle is either disabled — the default, a `None` that every hook checks
//! first and returns from without touching a clock or a lock — or enabled, an
//! `Arc` over the trace ring, the phase-timer cells, the current lifetime step,
//! and a mute flag. Cloning shares the underlying state, so the world, the
//! index and the scheduler can all stamp events into one ring.
//!
//! **Muting.** Applies inside a delta-logged scratch epoch (the model checker's
//! probe-and-rollback edges, the delta-log exactness tests) are rolled back, so
//! they are invisible in the committed trajectory and must be invisible in the
//! trace too. The world raises the mute flag via [`Telemetry::set_muted`] while
//! any delta epoch is open; `trace` drops events while the flag is set. Phase
//! timers ignore the mute — they measure wall clock, which scratch work
//! legitimately spends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::trace::{TraceEvent, TraceEventKind, TraceRing};

/// Default bound of the trace ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// The instrumented phases of one scheduler step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Drawing and validating the next interaction (scheduler sampling).
    Sample,
    /// Applying the selected interaction to the world.
    Apply,
    /// Flushing the pair index's pending queue.
    Flush,
}

/// Every phase, in rendering order.
pub const PHASES: [Phase; 3] = [Phase::Sample, Phase::Apply, Phase::Flush];

impl Phase {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Sample => "sample",
            Phase::Apply => "apply",
            Phase::Flush => "flush",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated numbers of one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Timer activations.
    pub calls: u64,
    /// Wall-clock nanoseconds inside the phase.
    pub nanos: u64,
    /// Phase-specific work units (selections sampled, nodes flushed, ...).
    pub units: u64,
}

impl PhaseStat {
    /// The phase time in milliseconds (for human-facing tables only; the
    /// stored value stays integer nanoseconds).
    #[must_use]
    pub fn millis(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// Per-phase aggregates of one run. All zero when telemetry was disabled, so
/// embedding this in `RunReport` does not disturb report equality checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    stats: [PhaseStat; PHASES.len()],
}

impl PhaseProfile {
    /// The aggregate of one phase.
    #[must_use]
    pub fn get(&self, phase: Phase) -> PhaseStat {
        self.stats[phase.index()]
    }

    /// Whether nothing was recorded (telemetry disabled or no work).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.calls == 0)
    }

    /// Total instrumented nanoseconds across phases. Phases can nest (apply
    /// contains flush), so this over-counts relative to wall clock; it is a
    /// weight for breakdown tables, not a duration.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.stats.iter().map(|s| s.nanos).sum()
    }
}

#[derive(Debug, Default)]
struct PhaseCell {
    calls: AtomicU64,
    nanos: AtomicU64,
    units: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    /// The lifetime step currently executing; deep layers (index, world) stamp
    /// events with it without threading the ordinal through every call.
    step: AtomicU64,
    /// Mute flag; set while a delta-logged scratch epoch is open.
    mute: AtomicU64,
    phases: [PhaseCell; PHASES.len()],
    ring: TraceRing,
}

/// The telemetry handle. `Telemetry::default()` is disabled.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A disabled handle: every hook is an early return.
    #[must_use]
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled handle with the default trace capacity.
    #[must_use]
    pub fn enabled() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled handle whose trace ring keeps the last `cap` events.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                step: AtomicU64::new(0),
                mute: AtomicU64::new(0),
                phases: Default::default(),
                ring: TraceRing::new(cap),
            })),
        }
    }

    /// Whether the handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the lifetime step subsequent events are stamped with.
    #[inline]
    pub fn set_step(&self, step: u64) {
        if let Some(inner) = &self.inner {
            inner.step.store(step, Ordering::Relaxed);
        }
    }

    /// The current lifetime step stamp.
    #[must_use]
    pub fn step(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.step.load(Ordering::Relaxed))
    }

    /// Sets the mute flag. The world raises it while at least one delta epoch is
    /// open (scratch mutations must not reach the trace) and clears it when the
    /// outermost epoch closes — a *set*, not a counter, because rolling back to an
    /// outer epoch discards inner ones without a per-epoch unwind call.
    #[inline]
    pub fn set_muted(&self, muted: bool) {
        if let Some(inner) = &self.inner {
            inner.mute.store(u64::from(muted), Ordering::Relaxed);
        }
    }

    /// Whether event emission is currently muted.
    #[must_use]
    pub fn is_muted(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.mute.load(Ordering::Relaxed) != 0)
    }

    /// Records an event stamped with the current step, unless disabled or
    /// muted.
    #[inline]
    pub fn trace(&self, lane: u32, kind: TraceEventKind) {
        if let Some(inner) = &self.inner {
            if inner.mute.load(Ordering::Relaxed) == 0 {
                inner.ring.push(TraceEvent {
                    step: inner.step.load(Ordering::Relaxed),
                    lane,
                    kind,
                });
            }
        }
    }

    /// Starts a scoped phase timer; time is recorded when the guard drops.
    /// Disabled handles hand out an inert guard without reading the clock.
    #[inline]
    #[must_use = "dropping the guard immediately records a zero-length phase"]
    pub fn phase(&self, phase: Phase) -> PhaseTimer<'_> {
        PhaseTimer {
            active: self
                .inner
                .as_deref()
                .map(|inner| (inner, phase, Instant::now(), 0)),
        }
    }

    /// Snapshot of the per-phase aggregates.
    #[must_use]
    pub fn phase_profile(&self) -> PhaseProfile {
        let Some(inner) = &self.inner else {
            return PhaseProfile::default();
        };
        let mut profile = PhaseProfile::default();
        for phase in PHASES {
            let cell = &inner.phases[phase.index()];
            profile.stats[phase.index()] = PhaseStat {
                calls: cell.calls.load(Ordering::Relaxed),
                nanos: cell.nanos.load(Ordering::Relaxed),
                units: cell.units.load(Ordering::Relaxed),
            };
        }
        profile
    }

    /// Snapshot of the trace ring (oldest first).
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.ring.snapshot())
    }

    /// Events evicted from the full ring so far.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.ring.dropped())
    }
}

/// The guard of one [`Telemetry::phase`] scope.
#[must_use = "the phase is timed until the guard drops"]
pub struct PhaseTimer<'a> {
    active: Option<(&'a Inner, Phase, Instant, u64)>,
}

impl PhaseTimer<'_> {
    /// Attributes `units` of phase-specific work to this activation.
    #[inline]
    pub fn add_units(&mut self, units: u64) {
        if let Some((_, _, _, total)) = &mut self.active {
            *total += units;
        }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some((inner, phase, started, units)) = self.active.take() {
            let cell = &inner.phases[phase.index()];
            cell.calls.fetch_add(1, Ordering::Relaxed);
            cell.nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            cell.units.fetch_add(units, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.set_step(9);
        t.trace(0, TraceEventKind::Merge);
        {
            let mut timer = t.phase(Phase::Apply);
            timer.add_units(5);
        }
        assert!(!t.is_enabled());
        assert!(t.trace_events().is_empty());
        assert!(t.phase_profile().is_empty());
    }

    #[test]
    fn events_are_stamped_with_the_current_step() {
        let t = Telemetry::enabled();
        t.set_step(3);
        t.trace(1, TraceEventKind::Merge);
        t.set_step(4);
        t.trace(2, TraceEventKind::Split);
        let events = t.trace_events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].step, events[0].lane), (3, 1));
        assert_eq!((events[1].step, events[1].lane), (4, 2));
    }

    #[test]
    fn muted_regions_drop_events() {
        let t = Telemetry::enabled();
        t.set_muted(true);
        assert!(t.is_muted());
        t.trace(0, TraceEventKind::Merge);
        t.set_muted(false);
        t.trace(0, TraceEventKind::Split);
        let events = t.trace_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, TraceEventKind::Split);
    }

    #[test]
    fn phase_timers_aggregate_calls_nanos_and_units() {
        let t = Telemetry::enabled();
        for _ in 0..3 {
            let mut timer = t.phase(Phase::Flush);
            timer.add_units(7);
        }
        let stat = t.phase_profile().get(Phase::Flush);
        assert_eq!(stat.calls, 3);
        assert_eq!(stat.units, 21);
        // nanos is wall clock — only its presence is asserted.
        assert!(t.phase_profile().total_nanos() == stat.nanos);
    }

    #[test]
    fn clones_share_the_ring() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        t.set_step(1);
        clone.trace(0, TraceEventKind::Merge);
        assert_eq!(t.trace_events().len(), 1);
        assert_eq!(t.trace_events()[0].step, 1);
    }
}
