//! Workers: claim a job, run one bounded slice, checkpoint, hand back.
//!
//! A worker never holds the queue lock while simulating: it claims under the lock,
//! executes the slice on its own, then reports the result under the lock. Each claim
//! runs **one** slice and requeues, so a heavy job cannot starve other tenants — the
//! queue's weighted draw decides what runs next after every slice.
//!
//! An idle worker waits on the service's `work` condition variable under the same
//! queue guard as its failed claim. A submission or a requeue notifies it while
//! holding that guard, so it cannot slip in between the claim and the wait.
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
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

use crate::http::ServiceHandle;
use crate::job::JobState;
use crate::metrics::recover_lock;
use crate::queue::{Claim, JobQueue, SliceResult};
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
    /// The longest an idle worker waits before it polls the queue again. A
    /// submission or a requeue cuts the wait short; the timeout remains the tick
    /// of the backoff clock, since each poll advances the queue's picks.
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
/// recorded in the metric families behind `/metrics` and `/stats`. Returns whether a
/// job was claimed; when none was, `on_idle` receives the guard of the failed
/// claim, so it can wait for work without missing a notification. This is the
/// single code path behind both the threaded [`worker_loop`] and the
/// deterministic single-threaded [`drain`], so the two record identical metrics
/// for identical claim sequences — the property the metrics determinism suite
/// pins.
pub fn service_step(
    service: &ServiceHandle,
    slice: u64,
    on_idle: impl FnOnce(MutexGuard<'_, JobQueue>),
) -> bool {
    let metrics = &service.metrics;
    let mut queue = recover_lock(&service.queue, metrics);
    let Some(claim) = queue.claim_next() else {
        on_idle(queue);
        return false;
    };
    drop(queue);
    metrics.record_claim(&claim);
    let (result, seconds) = run_slice(&claim, slice);
    metrics.record_slice(&claim, &result, seconds);
    let crashed = matches!(result, SliceResult::Crashed { .. });
    let state = {
        let mut queue = recover_lock(&service.queue, metrics);
        let state = queue.complete_slice(claim.id, result, seconds);
        if state == JobState::Queued {
            service.work.notify_one();
        }
        state
    };
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
        if service_step(service, slice, |_| ()) {
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

/// The worker loop: [`service_step`] until `stop` is raised, waiting up to
/// `config.idle_poll` for work after each failed claim. Meant to run on its own
/// thread; any number of workers may share one service handle. Stop it with
/// [`stop_pool`], which also wakes a waiting worker.
pub fn worker_loop(service: &ServiceHandle, stop: &Arc<AtomicBool>, config: WorkerConfig) {
    while !stop.load(Ordering::SeqCst) {
        service_step(service, config.slice, |queue| {
            service.metrics.worker_idle_polls.inc();
            // `stop_pool` raises the flag before it takes the queue lock to notify,
            // so a flag read under the guard cannot miss the stop.
            if !stop.load(Ordering::SeqCst) {
                let _ = service.work.wait_timeout(queue, config.idle_poll);
            }
        });
    }
}

/// Spawns `workers` threads running [`worker_loop`]; call [`stop_pool`] and join
/// the handles to shut the pool down.
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

/// Raises `stop` and wakes every waiting worker of the pool, so each returns
/// after its current slice instead of at the end of its idle wait.
pub fn stop_pool(service: &ServiceHandle, stop: &AtomicBool) {
    stop.store(true, Ordering::SeqCst);
    let _queue = recover_lock(&service.queue, &service.metrics);
    service.work.notify_all();
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

    /// An idle wait long enough that only a notification can explain a job
    /// finishing within [`WAKE_DEADLINE`].
    const LONG_IDLE: WorkerConfig = WorkerConfig {
        slice: 50_000,
        idle_poll: Duration::from_secs(30),
    };
    const WAKE_DEADLINE: Duration = Duration::from_secs(10);

    fn post_job(service: &ServiceHandle, body: &str) -> crate::job::JobId {
        let response =
            crate::http::route(service, tiny_http::Method::Post, "/jobs", body.as_bytes());
        assert_eq!(response.status_code(), 201, "{body}");
        let text = String::from_utf8_lossy(response.data()).to_string();
        text.trim()
            .trim_start_matches("{\"id\": ")
            .trim_end_matches('}')
            .parse()
            .expect("numeric id")
    }

    /// Waits until no job is live, failing after [`WAKE_DEADLINE`].
    fn wait_until_drained(service: &ServiceHandle, started: Instant) -> Duration {
        while service.queue.lock().expect("queue").has_live_jobs() {
            assert!(
                started.elapsed() < WAKE_DEADLINE,
                "work sat queued while workers waited out their idle timeout"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        started.elapsed()
    }

    fn stop_and_join(
        service: &ServiceHandle,
        stop: &AtomicBool,
        handles: Vec<std::thread::JoinHandle<()>>,
    ) {
        let started = Instant::now();
        stop_pool(service, stop);
        for handle in handles {
            handle.join().expect("worker joins");
        }
        assert!(
            started.elapsed() < WAKE_DEADLINE,
            "stop_pool must wake waiting workers"
        );
    }

    #[test]
    fn an_idle_pool_is_woken_by_a_submission_not_by_its_timeout() {
        let service = ServiceHandle::new(21);
        let stop = Arc::new(AtomicBool::new(false));
        let handles = spawn_pool(&service, &stop, LONG_IDLE, 2);
        // Let both workers fail their first claim and start waiting.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let id = post_job(&service, "protocol=square&n=9&seed=3");
        let took = wait_until_drained(&service, started);
        assert!(took < LONG_IDLE.idle_poll / 10, "took {took:?}");
        assert_eq!(
            service
                .queue
                .lock()
                .expect("queue")
                .get(id)
                .expect("record")
                .state,
            JobState::Done
        );
        stop_and_join(&service, &stop, handles);
    }

    #[test]
    fn a_burst_from_several_threads_loses_no_wake_up() {
        let service = ServiceHandle::new(22);
        let stop = Arc::new(AtomicBool::new(false));
        let handles = spawn_pool(&service, &stop, LONG_IDLE, 2);
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        let submitters: Vec<_> = (0..4u64)
            .map(|client| {
                let service = service.clone();
                std::thread::spawn(move || {
                    (0..8u64)
                        .map(|i| {
                            let body = format!(
                                "protocol=line&n=8&seed={}&tenant=t{client}",
                                client * 8 + i
                            );
                            post_job(&service, &body)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let ids: Vec<_> = submitters
            .into_iter()
            .flat_map(|submitter| submitter.join().expect("submitter joins"))
            .collect();
        wait_until_drained(&service, started);
        let queue = service.queue.lock().expect("queue");
        assert_eq!(ids.len(), 32);
        for id in ids {
            assert_eq!(
                queue.get(id).expect("record").state,
                JobState::Done,
                "job {id}"
            );
        }
        drop(queue);
        stop_and_join(&service, &stop, handles);
    }
}
