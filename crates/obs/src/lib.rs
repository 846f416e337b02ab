//! Deterministic telemetry for the network-constructor stack.
//!
//! Three building blocks, all zero-cost when unused:
//!
//! - [`metrics`] — a Prometheus-style registry of atomic counters, gauges and
//!   fixed log2-bucket **integer** histograms. No floats anywhere, so the
//!   rendered scrape text of two identical seeded runs is byte-identical for
//!   every family not explicitly marked wall-clock.
//! - [`trace`] — a bounded ring of typed events stamped with `(lifetime_step,
//!   lane)` rather than wall clock. Because every run of the paper's scheduler
//!   is a deterministic sequence of selections, a step-indexed trace is
//!   byte-reproducible and diffable across shard counts; the
//!   [`trace::chrome_trace_json`] encoder turns it into a Chrome
//!   `about://tracing` document.
//! - [`telemetry`] — the [`Telemetry`](telemetry::Telemetry) handle threaded
//!   through the simulator: an `Option<Arc<..>>` whose hooks are `#[inline]`
//!   early returns when disabled, carrying the trace ring, scoped phase timers
//!   (sample/apply/flush), and a mute flag that silences event emission inside
//!   delta-logged scratch epochs.
//!
//! The split between what is *observable* and what is *deterministic* is
//! deliberate and documented per family: step-indexed event counts and
//! queue-age-in-picks metrics reproduce byte-for-byte under a fixed seed;
//! latency histograms and busy-time counters are measurements and do not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod telemetry;
pub mod trace;

pub use metrics::{
    validate_prometheus_text, Counter, CounterVec, Gauge, GaugeVec, Histogram, HistogramVec,
    Registry,
};
pub use telemetry::{Phase, PhaseProfile, PhaseStat, PhaseTimer, Telemetry};
pub use trace::{chrome_trace_json, TraceEvent, TraceEventKind};
