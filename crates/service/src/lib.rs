//! Simulation-as-a-service: a snapshot-backed job queue, budgeted workers and an
//! HTTP results/stats tier over the shape-construction simulator.
//!
//! The crate follows the amimono-style modular-monolith layout the roadmap calls
//! for: three typed components behind one binary —
//!
//! * **queue** ([`queue`]): multi-tenant submission, weighted round-robin fairness
//!   (one uniform draw walked through cumulative weights, the walk the jump
//!   sampler resolves its effective pair with), cancellation, and crash retries with exponential backoff;
//! * **workers** ([`worker`]): each claim runs one bounded slice of a
//!   [`Simulation`](nc_core::Simulation) and checkpoints through the PR 5 snapshot
//!   format at every slice boundary, so a crashed worker — injected or genuine —
//!   loses at most one slice and the retry resumes **byte-identically** (pinned by
//!   `tests/crash_recovery.rs` and the `--smoke` gate);
//! * **results/stats** ([`stats`], [`http`]): deterministic per-job reports and live
//!   counters (read from the metrics), served over the vendored minimal HTTP/1.1
//!   server (`vendor/tiny_http`);
//! * **metrics** ([`metrics`]): the `nc_obs`-backed registry behind `GET /metrics`
//!   — Prometheus text with integer-only values, split into deterministic families
//!   (queue depth/age in picks, crash/retry/backoff and step counters, HTTP status
//!   counts) and wall-clock families (slice latency, worker busy time), plus the
//!   poisoned-lock recovery policy shared by the HTTP and worker tiers.
//!
//! The `service` binary wires all four; `service --smoke` is the self-contained CI
//! gate (bind an ephemeral port, submit over real HTTP, poll to completion, check
//! the crash-recovered report against an uncrashed twin, and require a well-formed
//! `/metrics` scrape carrying every required family).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod job;
pub mod metrics;
pub mod queue;
pub mod runner;
pub mod stats;
pub mod worker;

pub use http::ServiceHandle;
pub use job::{JobId, JobSpec, JobState, ProtocolKind, SpecError};
pub use metrics::ServiceMetrics;
pub use queue::{JobQueue, SliceResult};
pub use runner::{JobReport, JobRunner, SliceOutcome};
pub use worker::WorkerConfig;
