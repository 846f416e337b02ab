//! The service's metric families — the registry behind `GET /metrics`.
//!
//! Built on `nc_obs`'s integer-only registry, so the scrape text carries no
//! floats and no environment-dependent formatting. Families split into two
//! classes, declared at registration:
//!
//! * **Deterministic** — pure functions of the request/claim sequence: HTTP
//!   status counts, submission/completion/crash/retry counters, simulation step
//!   counters, queue depth per tenant and queue age measured in *picks* (the
//!   queue's own deterministic clock). Two identical seeded single-threaded
//!   runs render these byte-identically ([`ServiceMetrics::render_deterministic`],
//!   pinned by `tests/metrics.rs`).
//! * **Wall-clock** — measurements: slice latency histograms, worker busy time,
//!   idle polls, accept errors. Marked via [`Registry::mark_wall_clock`] and
//!   excluded from the deterministic render; they still appear in the full
//!   Prometheus scrape.
//!
//! The module also owns the poisoned-lock recovery policy of the HTTP and
//! worker tiers ([`recover_lock`]): instead of degrading every request after a
//! worker panic to 503 forever, the lock is recovered via [`nc_core::relock`]
//! and the event is counted in `service_lock_poison_recoveries_total`.

use std::sync::{Arc, Mutex, MutexGuard};

use nc_obs::{Counter, CounterVec, Gauge, GaugeVec, Histogram, HistogramVec, Registry};

use crate::queue::{backoff_for, Claim, JobQueue, SliceResult};

/// Every family `/metrics` must expose; the smoke gate and the metrics suite
/// fail if any is missing from a scrape.
pub const REQUIRED_FAMILIES: &[&str] = &[
    "service_http_requests_total",
    "service_http_accept_errors_total",
    "service_lock_poison_recoveries_total",
    "service_jobs_submitted_total",
    "service_jobs_done_total",
    "service_jobs_failed_total",
    "service_slices_total",
    "service_crashes_total",
    "service_retries_total",
    "service_backoff_picks_total",
    "service_sim_steps_total",
    "service_queue_depth",
    "service_queue_picks",
    "service_queue_age_picks",
    "service_slice_microseconds",
    "service_worker_busy_microseconds_total",
    "service_worker_idle_polls_total",
];

/// Typed handles to every family the service records, plus the registry that
/// renders them. One instance per [`ServiceHandle`](crate::ServiceHandle),
/// shared by the HTTP tier and all workers.
pub struct ServiceMetrics {
    registry: Registry,
    /// `service_http_requests_total{status}` — responses served, by status code.
    pub http_requests: Arc<CounterVec>,
    /// `service_http_accept_errors_total` — accept errors the HTTP loop paused
    /// on instead of exiting.
    pub http_accept_errors: Arc<Counter>,
    /// `service_lock_poison_recoveries_total` — poisoned locks recovered
    /// (see [`recover_lock`]).
    pub lock_poison_recoveries: Arc<Counter>,
    /// `service_jobs_submitted_total` — accepted submissions.
    pub jobs_submitted: Arc<Counter>,
    /// `service_jobs_done_total` — jobs finished with a report.
    pub jobs_done: Arc<Counter>,
    /// `service_jobs_failed_total` — jobs failed permanently.
    pub jobs_failed: Arc<Counter>,
    /// `service_slices_total{tenant}` — productive slices (parked or finished).
    pub slices: Arc<CounterVec>,
    /// `service_crashes_total` — worker crashes absorbed (injected or genuine).
    pub crashes: Arc<Counter>,
    /// `service_retries_total` — crashed attempts requeued (crashes that did
    /// not exhaust the retry budget).
    pub retries: Arc<Counter>,
    /// `service_backoff_picks_total` — total backoff imposed on retries, in
    /// queue picks (the queue's deterministic clock).
    pub backoff_picks: Arc<Counter>,
    /// `service_sim_steps_total` — lifetime scheduler steps executed by slices.
    pub sim_steps: Arc<Counter>,
    /// `service_queue_depth{tenant}` — queued jobs per tenant (refreshed at
    /// scrape time).
    pub queue_depth: Arc<GaugeVec>,
    /// `service_queue_picks` — the queue's pick counter (refreshed at scrape).
    pub queue_picks: Arc<Gauge>,
    /// `service_queue_age_picks` — picks a job waited before each claim.
    pub queue_age_picks: Arc<Histogram>,
    /// `service_slice_microseconds{tenant}` — wall-clock slice latency.
    pub slice_latency: Arc<HistogramVec>,
    /// `service_worker_busy_microseconds_total` — wall clock spent in slices.
    pub worker_busy_micros: Arc<Counter>,
    /// `service_worker_idle_polls_total` — failed claims by idle workers; each
    /// is followed by a wait that a submission or requeue cuts short, or that
    /// times out.
    pub worker_idle_polls: Arc<Counter>,
}

impl ServiceMetrics {
    /// Registers every family. Wall-clock families are marked so the
    /// deterministic render can exclude them.
    #[must_use]
    pub fn new() -> ServiceMetrics {
        let registry = Registry::new();
        let metrics = ServiceMetrics {
            http_requests: registry.counter_vec(
                "service_http_requests_total",
                "Responses served, by HTTP status code.",
                "status",
            ),
            http_accept_errors: registry.counter(
                "service_http_accept_errors_total",
                "Accept errors the HTTP loop paused on instead of exiting.",
            ),
            lock_poison_recoveries: registry.counter(
                "service_lock_poison_recoveries_total",
                "Poisoned queue/stats locks recovered instead of answered 503.",
            ),
            jobs_submitted: registry
                .counter("service_jobs_submitted_total", "Job submissions accepted."),
            jobs_done: registry.counter(
                "service_jobs_done_total",
                "Jobs finished with a deterministic report.",
            ),
            jobs_failed: registry.counter(
                "service_jobs_failed_total",
                "Jobs failed permanently (typed errors or exhausted retries).",
            ),
            slices: registry.counter_vec(
                "service_slices_total",
                "Productive slices executed (parked or finished), per tenant.",
                "tenant",
            ),
            crashes: registry.counter(
                "service_crashes_total",
                "Worker crashes absorbed (injected or genuine).",
            ),
            retries: registry.counter(
                "service_retries_total",
                "Crashed attempts requeued for retry.",
            ),
            backoff_picks: registry.counter(
                "service_backoff_picks_total",
                "Total retry backoff imposed, in queue picks.",
            ),
            sim_steps: registry.counter(
                "service_sim_steps_total",
                "Lifetime scheduler steps executed across all slices.",
            ),
            queue_depth: registry.gauge_vec(
                "service_queue_depth",
                "Queued jobs per tenant at scrape time.",
                "tenant",
            ),
            queue_picks: registry.gauge(
                "service_queue_picks",
                "The queue's monotone pick counter at scrape time.",
            ),
            queue_age_picks: registry.histogram(
                "service_queue_age_picks",
                "Picks a job waited in the queue before each claim.",
            ),
            slice_latency: registry.histogram_vec(
                "service_slice_microseconds",
                "Wall-clock slice latency, per tenant.",
                "tenant",
            ),
            worker_busy_micros: registry.counter(
                "service_worker_busy_microseconds_total",
                "Wall clock workers spent executing slices.",
            ),
            worker_idle_polls: registry.counter(
                "service_worker_idle_polls_total",
                "Failed claims by idle workers, each followed by a wait for work.",
            ),
            registry,
        };
        // Measurements (and thread-timing artifacts like idle polls and accept
        // errors) are not reproducible across runs; everything else must be.
        metrics
            .registry
            .mark_wall_clock("service_http_accept_errors_total");
        metrics
            .registry
            .mark_wall_clock("service_slice_microseconds");
        metrics
            .registry
            .mark_wall_clock("service_worker_busy_microseconds_total");
        metrics
            .registry
            .mark_wall_clock("service_worker_idle_polls_total");
        metrics
    }

    /// The full Prometheus text scrape (`text/plain; version=0.0.4`).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Only the deterministic families — the text two identical seeded
    /// single-threaded runs must reproduce byte-for-byte.
    #[must_use]
    pub fn render_deterministic(&self) -> String {
        self.registry.render_deterministic()
    }

    /// Refreshes the scrape-time gauges from the queue's current state.
    pub fn refresh_queue(&self, queue: &JobQueue) {
        self.queue_picks
            .set(i64::try_from(queue.picks()).unwrap_or(i64::MAX));
        for (tenant, depth) in queue.queued_depths() {
            self.queue_depth
                .with(&tenant)
                .set(i64::try_from(depth).unwrap_or(i64::MAX));
        }
    }

    /// Records a claim being handed to a worker (the queue-age observable).
    pub fn record_claim(&self, claim: &Claim) {
        self.queue_age_picks.observe(claim.queued_age_picks);
    }

    /// Records the state-independent outcome of one executed slice.
    pub fn record_slice(&self, claim: &Claim, result: &SliceResult, seconds: f64) {
        match result {
            SliceResult::Parked { steps, .. } | SliceResult::Done { steps, .. } => {
                self.slices.with(&claim.spec.tenant).inc();
                self.sim_steps.add(steps.saturating_sub(claim.steps));
                if matches!(result, SliceResult::Done { .. }) {
                    self.jobs_done.inc();
                }
            }
            SliceResult::Failed { .. } => self.jobs_failed.inc(),
            SliceResult::Crashed { .. } => self.crashes.inc(),
        }
        let micros = (seconds * 1e6) as u64;
        self.slice_latency.with(&claim.spec.tenant).observe(micros);
        self.worker_busy_micros.add(micros);
    }

    /// Records that a crashed attempt was requeued (call once the queue has
    /// decided retry-vs-fail; the backoff mirrors the queue's own arithmetic).
    pub fn record_retry(&self, claim: &Claim) {
        self.retries.inc();
        self.backoff_picks.add(backoff_for(claim.crashes + 1));
    }
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new()
    }
}

/// Locks `mutex`, recovering (and un-poisoning) it if a previous holder
/// panicked, counting each recovery in `service_lock_poison_recoveries_total`.
///
/// Recovery is sound for the service's locks (see the policy in `nc_core::lock`):
/// the queue is left
/// consistent by every critical section — workers mutate them only through
/// total transition functions — so the poison flag carries no integrity
/// information beyond "some thread panicked", which the crash accounting
/// already records.
pub fn recover_lock<'a, T>(mutex: &'a Mutex<T>, metrics: &ServiceMetrics) -> MutexGuard<'a, T> {
    if mutex.is_poisoned() {
        mutex.clear_poison();
        metrics.lock_poison_recoveries.inc();
    }
    nc_core::relock(mutex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_obs::validate_prometheus_text;

    #[test]
    fn every_required_family_renders_and_validates() {
        let metrics = ServiceMetrics::new();
        let text = metrics.render_prometheus();
        validate_prometheus_text(&text).expect("well-formed scrape");
        for family in REQUIRED_FAMILIES {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "{family} missing from:\n{text}"
            );
        }
    }

    #[test]
    fn wall_clock_families_are_excluded_from_the_deterministic_render() {
        let metrics = ServiceMetrics::new();
        let det = metrics.render_deterministic();
        for wall_clock in [
            "service_slice_microseconds",
            "service_worker_busy_microseconds_total",
            "service_worker_idle_polls_total",
            "service_http_accept_errors_total",
        ] {
            assert!(
                !det.contains(wall_clock),
                "{wall_clock} leaked into:\n{det}"
            );
        }
        assert!(det.contains("service_sim_steps_total"), "{det}");
    }

    #[test]
    fn recover_lock_counts_one_recovery_per_poisoning() {
        let metrics = ServiceMetrics::new();
        let lock = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock.lock().expect("first lock");
            panic!("poison the lock");
        }));
        assert!(lock.is_poisoned());
        *recover_lock(&lock, &metrics) += 1;
        assert_eq!(*recover_lock(&lock, &metrics), 8);
        assert_eq!(
            metrics.lock_poison_recoveries.value(),
            1,
            "the recovery is counted once, not once per later access"
        );
    }
}
