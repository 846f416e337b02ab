//! Crash-injection integration suite: kill a worker mid-job, require byte-identical
//! completion after resume.
//!
//! These tests run the real worker pool on real threads with the crash injected
//! through the job spec's `crash_after_slices` knob (the worker panics inside its
//! slice; `catch_unwind` + `nc_core::panic_message` recover it). The recovery
//! argument, end to end:
//!
//! 1. workers checkpoint through the PR 5 snapshot format at every slice boundary,
//!    and a slice is a fixed number of drawn selections counted from the state the
//!    checkpoint restores, so crashed and uncrashed runs share their boundaries;
//! 2. `Simulation::resume` restores a trajectory byte-identical to the
//!    uninterrupted run's (the PR 5 guarantee, pinned by `tests/crash_resume.rs`);
//! 3. therefore the deterministic `JobReport` of a crashed-and-recovered job must
//!    equal the uncrashed twin's **byte for byte** — which is what these tests
//!    assert, across protocols and sampling modes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use nc_core::scheduler::SamplingMode;
use nc_service::http::ServiceHandle;
use nc_service::job::{JobId, JobSpec, JobState, ProtocolKind};
use nc_service::queue::JobQueue;
use nc_service::worker::{spawn_pool, WorkerConfig};
use nc_service::ServiceMetrics;
use std::sync::Arc;

/// Runs `specs` to quiescence on a threaded pool; returns the queue and the service's
/// metrics afterwards.
fn run_pool(specs: Vec<JobSpec>, workers: usize, slice: u64) -> (JobQueue, Arc<ServiceMetrics>) {
    let service = ServiceHandle::new(0xD15C);
    {
        let mut q = service.queue.lock().expect("queue");
        for spec in specs {
            q.submit(spec);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let config = WorkerConfig {
        slice,
        idle_poll: Duration::from_millis(1),
    };
    let handles = spawn_pool(&service, &stop, config, workers);
    let started = Instant::now();
    loop {
        if !service.queue.lock().expect("queue").has_live_jobs() {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "the pool must drain"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::SeqCst);
    for handle in handles {
        handle.join().expect("worker joins");
    }
    let ServiceHandle { queue, metrics, .. } = service;
    let queue = Arc::try_unwrap(queue)
        .unwrap_or_else(|_| panic!("pool joined"))
        .into_inner()
        .expect("unpoisoned");
    (queue, metrics)
}

fn report_json(queue: &JobQueue, id: JobId) -> String {
    let record = queue.get(id).expect("record");
    assert_eq!(record.state, JobState::Done, "job {id}: {:?}", record.error);
    record.report.as_ref().expect("report").to_json()
}

#[test]
fn killed_worker_resumes_to_byte_identical_reports_across_protocols_and_modes() {
    // Clean twin and crash-injected twin for every (protocol, mode) cell; the
    // crash point varies so early and late kills are both exercised. A slice counts
    // drawn selections, and the jump sampler draws one per effective step, so a
    // sharded Square n=16 job takes a few dozen: its cells run at a slice short
    // enough to cross more than `crash_after` boundaries.
    let cells: [(ProtocolKind, SamplingMode, u64, u64); 3] = [
        (ProtocolKind::Line, SamplingMode::Adaptive, 1, 96),
        (ProtocolKind::Square, SamplingMode::Sharded, 3, 4),
        (ProtocolKind::Counting, SamplingMode::Adaptive, 1, 96),
    ];
    let mut done = 0;
    let mut crashes = 0;
    for (cell, (protocol, mode, crash_after, slice)) in cells.into_iter().enumerate() {
        let n = if protocol == ProtocolKind::Counting {
            8
        } else {
            16
        };
        let mut clean = JobSpec::new(protocol, n);
        clean.seed = 2026;
        clean.mode = mode;
        clean.tenant = "clean".to_string();
        let mut crashed = clean.clone();
        crashed.tenant = "crashed".to_string();
        crashed.crash_after_slices = Some(crash_after);
        let (queue, metrics) = run_pool(vec![clean, crashed], 3, slice);
        let clean = report_json(&queue, 0);
        let crashed = report_json(&queue, 1);
        assert_eq!(
            crashed, clean,
            "cell {cell}: crash-recovered report must match the uncrashed twin byte for byte"
        );
        let record = queue.get(1).expect("record");
        assert_eq!(
            record.crashes, 1,
            "cell {cell}: the injection fires exactly once"
        );
        assert!(
            record.slices > crash_after,
            "cell {cell}: the crashed job must run past its crash point ({} slices)",
            record.slices
        );
        done += metrics.jobs_done.value();
        crashes += metrics.crashes.value();
    }
    assert_eq!(crashes, 3, "one absorbed crash per injected cell");
    assert_eq!(done, 6);
}

#[test]
fn a_crash_on_the_very_first_slice_restarts_from_scratch() {
    // No checkpoint exists yet when the worker dies: the retry must start fresh and
    // still match the uncrashed twin.
    let mut clean = JobSpec::new(ProtocolKind::Square, 9);
    clean.seed = 7;
    let mut crashed = clean.clone();
    crashed.crash_after_slices = Some(0);
    let (queue, _) = run_pool(vec![clean, crashed], 2, 128);
    assert_eq!(report_json(&queue, 0), report_json(&queue, 1));
    let record = queue.get(1).expect("record");
    assert_eq!(record.crashes, 1);
    assert!(
        record
            .error
            .as_deref()
            .is_some_and(|e| e.contains("injected crash")),
        "the recovered panic message is kept for diagnosis: {:?}",
        record.error
    );
}

#[test]
fn retry_accounting_survives_alongside_successful_tenants() {
    // A crashing job shares the pool with healthy jobs from another tenant; the
    // healthy tenant must be unaffected and the crasher must still recover.
    let mut crasher = JobSpec::new(ProtocolKind::Square, 16);
    crasher.seed = 99;
    crasher.tenant = "flaky".to_string();
    crasher.crash_after_slices = Some(1);
    let mut specs = vec![crasher];
    for i in 0..3 {
        let mut healthy = JobSpec::new(ProtocolKind::Square, 9);
        healthy.seed = 200 + i;
        healthy.tenant = "steady".to_string();
        specs.push(healthy);
    }
    let (queue, metrics) = run_pool(specs, 2, 96);
    for id in 0..4 {
        let record = queue.get(id).expect("record");
        assert_eq!(record.state, JobState::Done, "job {id}: {:?}", record.error);
        assert!(
            record.report.as_ref().expect("report").completed,
            "job {id}"
        );
    }
    let flaky = queue.get(0).expect("record");
    assert_eq!(flaky.crashes, 1);
    assert!(
        flaky.attempts > flaky.slices,
        "the lost attempt is accounted"
    );
    assert_eq!(metrics.crashes.value(), 1);
    assert!(metrics
        .slices
        .values()
        .iter()
        .any(|(tenant, slices)| tenant == "steady" && *slices > 0));
}
