//! Workers: claim a job, run one bounded slice, checkpoint, hand back.
//!
//! A worker never holds the queue lock while simulating: it claims under the lock,
//! executes the slice on its own, then reports the result under the lock. Each claim
//! runs **one** slice and requeues, so a heavy job cannot starve other tenants — the
//! queue's weighted draw decides what runs next after every slice.
//!
//! Crash handling: the slice body runs under `catch_unwind`. A panic — whether
//! injected by the job's `crash_after_slices` knob or a genuine bug — is recovered
//! with [`nc_core::panic_message`] (the PR 9 panic-payload fix: `&str`, `String` and
//! opaque payloads all produce a readable message instead of a second panic) and
//! reported as [`SliceResult::Crashed`]; the queue requeues with backoff. Progress
//! since the last checkpoint is lost by construction, which is exactly what the
//! byte-identical recovery guarantee needs: the retry resumes from a slice boundary
//! the uncrashed run also passed through.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::ServiceHandle;
use crate::job::JobState;
use crate::metrics::recover_lock;
use crate::queue::{Claim, SliceResult};
use crate::runner::{JobReport, JobRunner, SliceOutcome};

/// Tuning of a worker pool.
#[derive(Clone, Copy, Debug)]
pub struct WorkerConfig {
    /// Drawn selections per slice (`steps − skipped_steps`: every step under
    /// adaptive and legacy sampling, one per applied interaction under the jump
    /// sampler). Small slices interleave tenants finely but checkpoint more often.
    /// Reports do not depend on it, except under legacy sampling, whose doubling
    /// stability-check interval restarts with every slice; so all workers of one
    /// service share it.
    pub slice: u64,
    /// How long an idle worker sleeps before re-polling the queue.
    pub idle_poll: Duration,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            slice: 50_000,
            idle_poll: Duration::from_millis(2),
        }
    }
}

/// Executes one claimed slice: resume (or fresh start), advance, checkpoint. Pure
/// apart from wall-clock measurement; shared by the worker loop and the tests.
///
/// Returns the slice result and the wall-clock seconds spent.
#[must_use]
pub fn run_slice(claim: &Claim, slice: u64) -> (SliceResult, f64) {
    let started = Instant::now();
    let injected_crash = claim.crashes == 0
        && claim
            .spec
            .crash_after_slices
            .is_some_and(|after| claim.slices >= after);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut runner = match &claim.snapshot {
            Some(bytes) => {
                JobRunner::resume(&claim.spec, bytes).map_err(|e| format!("resume failed: {e}"))?
            }
            None => JobRunner::start(&claim.spec),
        };
        if injected_crash {
            // The injection point sits *after* resume and *before* the slice runs:
            // the crash loses the slice's progress, which is the interesting case
            // for the recovery argument.
            panic!(
                "injected crash before slice {} of job {}",
                claim.slices, claim.id
            );
        }
        match runner.advance(slice, claim.spec.step_budget) {
            SliceOutcome::Finished { completed } => {
                let report = JobReport::from_runner(&claim.spec, &runner, completed);
                let steps = runner.stats().steps;
                Ok(SliceResult::Done { report, steps })
            }
            SliceOutcome::BudgetExhausted => Ok(SliceResult::Failed {
                error: format!(
                    "step budget of {} exhausted after {} steps",
                    claim.spec.step_budget,
                    runner.stats().steps
                ),
            }),
            SliceOutcome::Yielded => {
                let snapshot = runner
                    .checkpoint_bytes()
                    .map_err(|e| format!("checkpoint failed: {e}"))?;
                let steps = runner.stats().steps;
                Ok(SliceResult::Parked { snapshot, steps })
            }
        }
    }));
    let seconds = started.elapsed().as_secs_f64();
    let slice_result = match result {
        Ok(Ok(slice_result)) => slice_result,
        Ok(Err(error)) => SliceResult::Failed { error },
        Err(payload) => SliceResult::Crashed {
            message: nc_core::panic_message(payload.as_ref()).to_string(),
        },
    };
    (slice_result, seconds)
}

/// Claims and executes one slice: poll, run, report, with every observable
/// recorded (service counters *and* the `/metrics` families). Returns whether a
/// job was claimed. This is the single code path behind both the threaded
/// [`worker_loop`] and the deterministic single-threaded [`drain`], so the two
/// record identical metrics for identical claim sequences — the property the
/// metrics determinism suite pins.
pub fn service_step(service: &ServiceHandle, slice: u64) -> bool {
    let metrics = &service.metrics;
    let claim = recover_lock(&service.queue, metrics).claim_next();
    let Some(claim) = claim else {
        return false;
    };
    metrics.record_claim(&claim);
    let (result, seconds) = run_slice(&claim, slice);
    metrics.record_slice(&claim, &result, seconds);
    recover_lock(&service.stats, metrics).record_slice(&claim.spec.tenant, &result);
    let crashed = matches!(result, SliceResult::Crashed { .. });
    let state = recover_lock(&service.queue, metrics).complete_slice(claim.id, result, seconds);
    if crashed && state == JobState::Queued {
        metrics.record_retry(&claim);
    }
    true
}

/// Runs the queue dry on the calling thread (tests and scripted runs). Backoff
/// windows are waited out in picks: an idle poll still advances the pick clock.
pub fn drain(service: &ServiceHandle, slice: u64) {
    let mut idle = 0u64;
    while recover_lock(&service.queue, &service.metrics).has_live_jobs() {
        if service_step(service, slice) {
            idle = 0;
        } else {
            idle += 1;
            assert!(
                idle < 1_000_000,
                "live jobs but a million empty polls: the queue is wedged"
            );
        }
    }
}

/// The worker loop: [`service_step`] until `stop` is raised. Meant to run on its
/// own thread; any number of workers may share one service handle.
pub fn worker_loop(service: &ServiceHandle, stop: &Arc<AtomicBool>, config: WorkerConfig) {
    while !stop.load(Ordering::SeqCst) {
        if !service_step(service, config.slice) {
            service.metrics.worker_idle_polls.inc();
            std::thread::sleep(config.idle_poll);
        }
    }
}

/// Spawns `workers` threads running [`worker_loop`]; join the handles after raising
/// `stop` to shut the pool down.
#[must_use]
pub fn spawn_pool(
    service: &ServiceHandle,
    stop: &Arc<AtomicBool>,
    config: WorkerConfig,
    workers: usize,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..workers.max(1))
        .map(|_| {
            let service = service.clone();
            let stop = Arc::clone(stop);
            std::thread::spawn(move || worker_loop(&service, &stop, config))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, ProtocolKind};

    fn submit(service: &ServiceHandle, spec: JobSpec) -> crate::job::JobId {
        recover_lock(&service.queue, &service.metrics).submit(spec)
    }

    #[test]
    fn a_job_runs_to_done_across_many_slices() {
        let service = ServiceHandle::new(3);
        let id = submit(&service, JobSpec::new(ProtocolKind::Square, 16));
        drain(&service, 256);
        let queue = service.queue.lock().expect("queue");
        let record = queue.get(id).expect("record");
        assert_eq!(record.state, JobState::Done);
        let report = record.report.as_ref().expect("report");
        assert!(report.completed);
        assert!(
            record.slices > 1,
            "slice length 256 must take several slices"
        );
        // Every productive slice and its steps landed in the metrics.
        assert_eq!(
            service.metrics.slices.with("default").value(),
            record.slices
        );
        assert_eq!(service.metrics.sim_steps.value(), record.steps);
    }

    #[test]
    fn injected_crash_recovers_to_an_identical_report() {
        // Reference: no crash.
        let service = ServiceHandle::new(3);
        let clean = submit(&service, JobSpec::new(ProtocolKind::Square, 16));
        drain(&service, 256);
        let clean_json = service
            .queue
            .lock()
            .expect("queue")
            .get(clean)
            .expect("record")
            .report
            .as_ref()
            .expect("report")
            .to_json();

        // Same spec, crash injected before slice 2 of the first attempt.
        let service = ServiceHandle::new(3);
        let mut spec = JobSpec::new(ProtocolKind::Square, 16);
        spec.crash_after_slices = Some(2);
        let crashed = submit(&service, spec);
        drain(&service, 256);
        let queue = service.queue.lock().expect("queue");
        let record = queue.get(crashed).expect("record");
        assert_eq!(record.crashes, 1, "the injection fires exactly once");
        assert!(record.attempts >= 2, "the retry is a fresh attempt");
        let crashed_json = record.report.as_ref().expect("report").to_json();
        assert_eq!(
            crashed_json, clean_json,
            "recovery from the last checkpoint must reproduce the uncrashed report byte for byte"
        );
        // The crash, the retry and its backoff all registered.
        assert_eq!(service.metrics.crashes.value(), 1);
        assert_eq!(service.metrics.retries.value(), 1);
        assert_eq!(
            service.metrics.backoff_picks.value(),
            crate::queue::backoff_for(1)
        );
    }

    #[test]
    fn budget_exhaustion_fails_the_job_with_a_typed_message() {
        let service = ServiceHandle::new(3);
        let mut spec = JobSpec::new(ProtocolKind::Line, 64);
        spec.step_budget = 100;
        let id = submit(&service, spec);
        drain(&service, 64);
        let queue = service.queue.lock().expect("queue");
        let record = queue.get(id).expect("record");
        assert_eq!(record.state, JobState::Failed);
        assert!(record
            .error
            .as_deref()
            .is_some_and(|e| e.contains("step budget")));
        assert_eq!(service.metrics.jobs_failed.value(), 1);
    }

    #[test]
    fn threaded_pool_completes_jobs_from_two_tenants() {
        let service = ServiceHandle::new(9);
        let stop = Arc::new(AtomicBool::new(false));
        let ids: Vec<_> = (0..4)
            .map(|i| {
                let mut spec = JobSpec::new(ProtocolKind::Square, 9);
                spec.seed = 100 + i;
                spec.tenant = if i % 2 == 0 {
                    "even".into()
                } else {
                    "odd".into()
                };
                submit(&service, spec)
            })
            .collect();
        let config = WorkerConfig {
            slice: 128,
            idle_poll: Duration::from_millis(1),
        };
        let handles = spawn_pool(&service, &stop, config, 3);
        let started = Instant::now();
        loop {
            if !service.queue.lock().expect("queue").has_live_jobs() {
                break;
            }
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "pool must finish 4 small jobs quickly"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);
        for handle in handles {
            handle.join().expect("worker joins");
        }
        let q = service.queue.lock().expect("queue");
        for id in ids {
            let record = q.get(id).expect("record");
            assert_eq!(record.state, JobState::Done, "job {id}");
            assert!(record.report.as_ref().expect("report").completed);
        }
    }
}
