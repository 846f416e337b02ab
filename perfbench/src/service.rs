//! The service workload: the simulation service in process on an ephemeral port,
//! loaded by a closed loop of clients over real sockets.
//!
//! Each client submits a job (`POST /jobs`), polls `GET /jobs/<id>` until the job
//! is done, then fetches `GET /jobs/<id>/report`; only then does it submit its
//! next job. A job's latency runs from the submit to the fetched report. Every
//! report must equal, byte for byte, an in-process `JobRunner` run of the same
//! spec. The traced run replays each finished job through
//! `JobRunner::{start, resume, advance, checkpoint_bytes}` with the service's
//! slice length, and times direct `http::route` calls.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nc_service::client::{self, Exchange};
use nc_service::http::{route, serve, ServiceHandle};
use nc_service::metrics::recover_lock;
use nc_service::worker::{spawn_pool, WorkerConfig};
use nc_service::{JobReport, JobRunner, JobSpec, SliceOutcome};
use tiny_http::{Method, Server, ServerStopper};

use crate::calibrate;
use crate::stats::{median, ratio, SeedStream};
use crate::Outcome;

/// The service's defaults: two workers and a 50 000-step slice.
const WORKERS: usize = 2;
const SLICE: u64 = 50_000;
/// Closed-loop clients; client `c` submits as tenant `t{c+1}` with weight `c+1`.
const CLIENTS: usize = 2;
/// Pause before each status poll.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Pause between two kernel timings of the probe that runs beside the load.
const PROBE_EVERY: Duration = Duration::from_millis(450);
/// The service keeps the last checkpoint of every finished job, so its memory
/// grows with the number of jobs, which the host's speed sets. `peak_rss_mib` is
/// therefore read once this many jobs have finished (every run gets there), not
/// at the end of the window.
const RSS_AFTER_JOBS: usize = 40;
/// A job still unfinished after this long counts as failed (no halt).
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// The job kinds: all sharded (the default adaptive mode and Square n ≥ 1024 do
/// not finish within the default step budget).
const LINE_1K: (&str, usize) = ("line", 1024);
const LINE_4K: (&str, usize) = ("line", 4096);
const SQUARE: (&str, usize) = ("square", 256);
const COUNTING: (&str, usize) = ("counting", 1024);
const KINDS: [(&str, usize); 4] = [LINE_1K, LINE_4K, SQUARE, COUNTING];

/// One client round: ten (kind, shards) jobs. On the seed code a line n=1024
/// job takes about 45 ms at one shard and 60 ms at two, square 165 ms, counting
/// 450–700 ms and line n=4096 2–2.4 s. Six of the ten are one-shard lines, so
/// the median latency falls inside that class instead of in the gap between
/// two. It is the steadiest class: a line's step count barely varies with the
/// seed, and a one-shard resume spawns no threads, whose start-up time swings
/// with the host's load. The slowest job of round `r` rotates through counting
/// and line n=4096 at both shard counts.
fn round(r: usize) -> [((&'static str, usize), usize); 10] {
    let heavy = [(COUNTING, 1), (COUNTING, 2), (LINE_4K, 1), (LINE_4K, 2)][r % 4];
    [
        (LINE_1K, 1),
        (LINE_1K, 1),
        (LINE_1K, 1),
        (LINE_1K, 1),
        (LINE_1K, 1),
        (LINE_1K, 1),
        (LINE_1K, 2),
        (SQUARE, 1),
        (SQUARE, 2),
        heavy,
    ]
}

/// An in-process service instance.
struct Running {
    addr: SocketAddr,
    handle: ServiceHandle,
    stop: Arc<AtomicBool>,
    stopper: ServerStopper,
    threads: Vec<JoinHandle<()>>,
}

impl Running {
    fn start(seed: u64) -> Result<Running, String> {
        let server = Server::http(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .server_addr()
            .map_err(|e| format!("local address: {e}"))?;
        let handle = ServiceHandle::new(seed);
        let stop = Arc::new(AtomicBool::new(false));
        let config = WorkerConfig {
            slice: SLICE,
            ..WorkerConfig::default()
        };
        let mut threads = spawn_pool(&handle, &stop, config, WORKERS);
        let stopper = server.stopper();
        let (http_handle, http_stop) = (handle.clone(), Arc::clone(&stop));
        threads.push(std::thread::spawn(move || {
            serve(&server, &http_handle, &http_stop);
        }));
        Ok(Running {
            addr,
            handle,
            stop,
            stopper,
            threads,
        })
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.stopper.stop();
        for thread in self.threads {
            if thread.join().is_err() {
                eprintln!("perfbench: a service thread panicked");
            }
        }
    }
}

/// One job as a client saw it.
struct JobTrace {
    spec: JobSpec,
    id: Option<u64>,
    latency_ms: f64,
    post_ms: f64,
    get_job_ms: Vec<f64>,
    report_ms: Option<f64>,
    report: Option<String>,
    error: Option<String>,
}

fn job_body(kind: (&str, usize), shards: usize, seed: u64, client: usize) -> String {
    format!(
        "protocol={}&n={}&seed={seed}&mode=sharded&shards={shards}&tenant=t{}&weight={}",
        kind.0,
        kind.1,
        client + 1,
        client + 1
    )
}

/// The client's job list, one round at a time: a seeded order of [`round`], with
/// seeded job seeds.
struct JobMix {
    seeds: SeedStream,
    client: usize,
    rounds: usize,
    round: Vec<String>,
}

impl JobMix {
    fn new(seed: u64, client: usize) -> JobMix {
        JobMix {
            seeds: SeedStream::new(seed ^ (0xC11E_u64 << (8 * client))),
            client,
            rounds: 0,
            round: Vec::new(),
        }
    }

    fn next_body(&mut self) -> String {
        if self.round.is_empty() {
            let r = self.rounds + 2 * self.client;
            self.rounds += 1;
            for (kind, shards) in round(r) {
                let seed = self.seeds.next_u64() >> 1;
                self.round.push(job_body(kind, shards, seed, self.client));
            }
            self.seeds.shuffle(&mut self.round);
        }
        self.round.pop().expect("a round is never empty")
    }
}

fn timed(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (Result<Exchange, String>, f64) {
    let started = Instant::now();
    let result =
        client::request(addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"));
    (result, started.elapsed().as_secs_f64() * 1e3)
}

fn expect_status(result: Result<Exchange, String>, status: u16) -> Result<String, String> {
    let exchange = result?;
    if exchange.status == status {
        Ok(exchange.body)
    } else {
        Err(format!(
            "answered {}: {}",
            exchange.status,
            exchange.body.trim()
        ))
    }
}

/// Submit → poll → report, over real sockets.
fn one_job(addr: SocketAddr, body: String) -> JobTrace {
    let spec = JobSpec::parse(&body).expect("the benchmark's job bodies are valid");
    let started = Instant::now();
    let mut job = JobTrace {
        spec,
        id: None,
        latency_ms: 0.0,
        post_ms: 0.0,
        get_job_ms: Vec::new(),
        report_ms: None,
        report: None,
        error: None,
    };
    let (result, post_ms) = timed(addr, "POST", "/jobs", &body);
    job.post_ms = post_ms;
    let outcome = expect_status(result, 201).and_then(|answer| {
        let id: u64 = answer
            .trim()
            .trim_start_matches("{\"id\": ")
            .trim_end_matches('}')
            .parse()
            .map_err(|_| format!("unparsable submit answer {answer:?}"))?;
        job.id = Some(id);
        loop {
            if started.elapsed() > JOB_TIMEOUT {
                return Err(format!("job {id} unfinished after {JOB_TIMEOUT:?}"));
            }
            std::thread::sleep(POLL_INTERVAL);
            let (result, ms) = timed(addr, "GET", &format!("/jobs/{id}"), "");
            job.get_job_ms.push(ms);
            let status = expect_status(result, 200)?;
            if status.contains("\"state\": \"done\"") {
                break;
            }
            if !status.contains("\"state\": \"queued\"")
                && !status.contains("\"state\": \"running\"")
            {
                return Err(format!(
                    "job {id} ended without a report: {}",
                    status.trim()
                ));
            }
        }
        let (result, ms) = timed(addr, "GET", &format!("/jobs/{id}/report"), "");
        job.report_ms = Some(ms);
        expect_status(result, 200)
    });
    job.latency_ms = started.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Ok(report) => job.report = Some(report),
        Err(e) => job.error = Some(e),
    }
    job
}

/// What the closed loop produced.
struct Load {
    jobs: Vec<JobTrace>,
    /// Wall seconds until the last job finished.
    wall_s: f64,
    /// The probe's kernel timings (see [`load`]).
    kernel_s: Vec<f64>,
    /// Peak RSS once [`RSS_AFTER_JOBS`] jobs had finished (at the end if fewer).
    rss_mib: f64,
}

/// Runs the closed loop for `seconds`; in-flight jobs finish after that. A
/// probe thread times the kernel every [`PROBE_EVERY`] meanwhile: the service
/// keeps both cores busy, so the probe shares them with it, but the load is
/// steady, so the probe's share stays the same while the host's speed moves.
fn load(addr: SocketAddr, seed: u64, seconds: f64) -> Load {
    let stop = AtomicBool::new(false);
    let finished = AtomicUsize::new(0);
    let rss_mib = OnceLock::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let probe = scope.spawn(|| {
            let mut samples = Vec::new();
            loop {
                samples.push(calibrate::kernel_s());
                std::thread::sleep(PROBE_EVERY);
                if stop.load(Ordering::SeqCst) {
                    return samples;
                }
            }
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (finished, rss_mib) = (&finished, &rss_mib);
                scope.spawn(move || {
                    let mut mix = JobMix::new(seed, client);
                    let mut jobs = Vec::new();
                    while Instant::now() < deadline || jobs.is_empty() {
                        jobs.push(one_job(addr, mix.next_body()));
                        if finished.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AFTER_JOBS {
                            let _ = rss_mib.set(crate::stamp::peak_rss_mib());
                        }
                    }
                    jobs
                })
            })
            .collect();
        let joined: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
        let wall_s = started.elapsed().as_secs_f64();
        // The probe stops before anything can panic; the scope would otherwise
        // wait for it forever.
        stop.store(true, Ordering::SeqCst);
        let kernel_s = probe.join().expect("the probe thread does not panic");
        let jobs = joined
            .into_iter()
            .flat_map(|c| c.expect("client threads do not panic"))
            .collect();
        Load {
            jobs,
            wall_s,
            kernel_s,
            rss_mib: rss_mib
                .get()
                .copied()
                .unwrap_or_else(crate::stamp::peak_rss_mib),
        }
    })
}

/// The report an in-process `JobRunner` run of `spec` produces, as the service
/// serves it. The run advances in slices of the service's length but never
/// leaves memory: sharded sampling redraws a geometric jump that a slice
/// boundary cut short, so only runs sliced alike share a trajectory, and
/// checkpoint/resume must then be invisible.
fn reference_report(spec: &JobSpec) -> Option<(String, u64)> {
    let mut runner = JobRunner::start(spec);
    loop {
        match runner.advance(SLICE, spec.step_budget) {
            SliceOutcome::Finished { completed } => {
                let report = JobReport::from_runner(spec, &runner, completed);
                return Some((format!("{}\n", report.to_json()), report.effective_steps));
            }
            SliceOutcome::Yielded => {}
            SliceOutcome::BudgetExhausted => return None,
        }
    }
}

/// Set-up: start the service, pass `/healthz`, run one fixed-seed warm-up job
/// of every protocol through it, shut it down. The warm-up jobs are big enough
/// that compute, which the host-speed scaling tracks, outweighs the fixed poll
/// sleeps.
fn setup(seed: u64) -> Result<(), String> {
    let service = Running::start(seed)?;
    let health = expect_status(timed(service.addr, "GET", "/healthz", "").0, 200);
    let warmups = [
        "protocol=line&n=1024",
        "protocol=square&n=256",
        "protocol=counting&n=256",
    ];
    let mut result = health.map(|_| ());
    for body in warmups {
        let job = one_job(service.addr, format!("{body}&seed=1&mode=sharded"));
        if let Some(e) = job.error {
            result = Err(format!("warm-up job: {e}"));
        }
    }
    service.shutdown();
    result
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut failed = 0u64;
    let mut kernel_before = calibrate::kernel_s();
    for _ in 0..crate::SETUP_REPEATS {
        let started = Instant::now();
        if let Err(e) = setup(seed) {
            failed += 1;
            eprintln!("perfbench: set-up failed: {e}");
        }
        let raw = started.elapsed().as_secs_f64();
        let kernel_after = calibrate::kernel_s();
        setup_s.push(raw * calibrate::scale((kernel_before + kernel_after) / 2.0));
        kernel_before = kernel_after;
    }

    let service = Running::start(seed)?;
    let Load {
        jobs,
        wall_s,
        kernel_s,
        rss_mib,
    } = load(service.addr, seed, seconds);
    let scale = calibrate::scale(kernel_s.iter().sum::<f64>() / kernel_s.len() as f64);
    let scrape = timed(service.addr, "GET", "/metrics", "").0;
    let slice_seconds: Vec<Option<f64>> = {
        let queue = recover_lock(&service.handle.queue, &service.handle.metrics);
        jobs.iter()
            .map(|job| {
                job.id
                    .and_then(|id| queue.get(id))
                    .map(|record| record.seconds)
            })
            .collect()
    };
    service.shutdown();

    let mut effective_steps = 0u64;
    for job in &jobs {
        let verdict = match (&job.report, &job.error) {
            (_, Some(e)) => Err(e.clone()),
            (Some(report), None) => match reference_report(&job.spec) {
                Some((reference, eff))
                    if *report == reference && report.contains("\"completed\": true") =>
                {
                    effective_steps += eff;
                    Ok(())
                }
                Some((reference, _)) => Err(format!(
                    "report {report:?} differs from the in-process run {reference:?}"
                )),
                None => Err("the in-process reference exhausted its budget".to_string()),
            },
            (None, None) => Err("no report".to_string()),
        };
        if let Err(e) = verdict {
            failed += 1;
            eprintln!("perfbench: job {:?} failed: {e}", job.id);
        }
    }
    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_ms).collect();
    let attempted = jobs.len() as u64;
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for job in &jobs {
        let kind = format!(
            "{}-{}@{}",
            job.spec.protocol.name(),
            job.spec.n,
            job.spec.shards
        );
        by_kind.entry(kind).or_default().push(job.latency_ms);
    }
    crate::print_by_kind(&by_kind);
    println!(
        "perfbench: {attempted} jobs in {wall_s:.3} s, failed_ratio {}; raw eff_steps_per_s {:.1}, raw run_ms_p50 {:.4}, host scale {scale:.4}",
        ratio(failed as f64, attempted as f64),
        ratio(effective_steps as f64, wall_s),
        median(&latencies),
    );
    if !trace {
        let scaled_s = wall_s * scale;
        return Ok(Outcome {
            attempted,
            failed,
            metrics: vec![
                ("setup_s", median(&setup_s)),
                ("eff_steps_per_s", ratio(effective_steps as f64, scaled_s)),
                ("run_ms_p50", median(&latencies) * scale),
                ("runs_per_s", ratio(attempted as f64, scaled_s)),
                ("peak_rss_mib", rss_mib),
            ],
        });
    }

    let busy_us = scrape
        .ok()
        .and_then(|s| {
            crate::scrape::family_total(&s.body, "service_worker_busy_microseconds_total")
        })
        .unwrap_or(0.0);
    // Replaying every job would cost twice the load's wall clock (the load ran
    // on two workers), so the replay covers jobs in submission order for half
    // the measuring time.
    let mut layer = Layers::default();
    let mut runner_ms = Vec::new();
    let mut replayed: Vec<&JobTrace> = jobs.iter().filter(|j| j.report.is_some()).collect();
    replayed.sort_by_key(|j| j.id);
    let replay_started = Instant::now();
    for job in replayed {
        if !runner_ms.is_empty() && replay_started.elapsed().as_secs_f64() > seconds / 2.0 {
            break;
        }
        match replay(&job.spec, &mut layer) {
            Ok((report, ms)) if Some(&report) == job.report.as_ref() => runner_ms.push(ms),
            Ok((report, _)) => {
                failed += 1;
                eprintln!("perfbench: replay of job {:?} reported {report:?}", job.id);
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: replay of job {:?} failed: {e}", job.id);
            }
        }
    }
    let waits: Vec<f64> = jobs
        .iter()
        .zip(&slice_seconds)
        .filter_map(|(job, s)| s.map(|s| job.latency_ms - s * 1e3))
        .collect();
    let get_job_ms: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.get_job_ms.iter().copied())
        .collect();
    let report_ms: Vec<f64> = jobs.iter().filter_map(|j| j.report_ms).collect();
    let post_ms: Vec<f64> = jobs.iter().map(|j| j.post_ms).collect();
    let done = jobs.iter().filter(|j| j.report.is_some()).count() as f64;
    let job_p50 = median(&latencies);
    let runner_share = ratio(median(&runner_ms), job_p50);
    println!(
        "perfbench: the summed runner.* time of a job accounts for {:.1}% of run_ms_p50 ({job_p50:.3} ms)",
        runner_share * 1e2
    );
    println!("perfbench: the HTTP load runs untraced in both modes; layer numbers come from a separate replay");
    let mut metrics = layer.metrics();
    metrics.extend([
        (
            "queue.slices_per_job",
            ratio(layer.slices as f64, runner_ms.len() as f64),
        ),
        ("queue.wait_ms", median(&waits)),
        (
            "worker.busy_ratio",
            ratio(busy_us, WORKERS as f64 * wall_s * 1e6),
        ),
        ("runner.job_share", runner_share),
        ("http.post_jobs_ms", median(&post_ms)),
        ("http.get_job_ms", median(&get_job_ms)),
        ("http.get_report_ms", median(&report_ms)),
        ("http.route_us", route_us(seed)),
        (
            "http.poll_useful_ratio",
            ratio(done, get_job_ms.len() as f64),
        ),
    ]);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Per-slice runner timings of the replay, split by shard count (index 0: one
/// shard, index 1: two).
#[derive(Default)]
struct Layers {
    resume_ms: [Vec<f64>; 2],
    advance_ms: [Vec<f64>; 2],
    checkpoint_ms: [Vec<f64>; 2],
    snapshot_bytes: [Vec<f64>; 2],
    slices: u64,
}

impl Layers {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mean = |xs: &Vec<f64>| ratio(xs.iter().sum(), xs.len() as f64);
        vec![
            ("runner.resume_ms.shards1", mean(&self.resume_ms[0])),
            ("runner.resume_ms.shards2", mean(&self.resume_ms[1])),
            ("runner.advance_ms.shards1", mean(&self.advance_ms[0])),
            ("runner.advance_ms.shards2", mean(&self.advance_ms[1])),
            ("runner.checkpoint_ms.shards1", mean(&self.checkpoint_ms[0])),
            ("runner.checkpoint_ms.shards2", mean(&self.checkpoint_ms[1])),
            ("snapshot.bytes.shards1", mean(&self.snapshot_bytes[0])),
            ("snapshot.bytes.shards2", mean(&self.snapshot_bytes[1])),
        ]
    }
}

/// Replays a job slice by slice exactly as a worker runs it (fresh start, then a
/// resume from the previous slice's checkpoint before every later slice) and
/// returns its report as served plus the summed runner time in ms.
fn replay(spec: &JobSpec, layers: &mut Layers) -> Result<(String, f64), String> {
    let lane = usize::from(spec.shards != 1);
    let ms = |started: Instant| started.elapsed().as_secs_f64() * 1e3;
    let mut total = 0.0;
    let mut snapshot: Option<Vec<u8>> = None;
    loop {
        let started = Instant::now();
        let mut runner = match &snapshot {
            Some(bytes) => {
                let runner = JobRunner::resume(spec, bytes).map_err(|e| format!("resume: {e}"))?;
                layers.resume_ms[lane].push(ms(started));
                runner
            }
            None => JobRunner::start(spec),
        };
        total += ms(started);
        let started = Instant::now();
        let outcome = runner.advance(SLICE, spec.step_budget);
        layers.advance_ms[lane].push(ms(started));
        total += ms(started);
        layers.slices += 1;
        match outcome {
            SliceOutcome::Finished { completed } => {
                let report = JobReport::from_runner(spec, &runner, completed);
                return Ok((format!("{}\n", report.to_json()), total));
            }
            SliceOutcome::Yielded => {
                let started = Instant::now();
                let bytes = runner
                    .checkpoint_bytes()
                    .map_err(|e| format!("checkpoint: {e}"))?;
                layers.checkpoint_ms[lane].push(ms(started));
                total += ms(started);
                layers.snapshot_bytes[lane].push(bytes.len() as f64);
                snapshot = Some(bytes);
            }
            SliceOutcome::BudgetExhausted => return Err("step budget exhausted".to_string()),
        }
    }
}

/// Mean µs of one direct `http::route` call over a fixed request script on a
/// service without workers: submit, status, early report (409) and health.
fn route_us(seed: u64) -> f64 {
    let handle = ServiceHandle::new(seed);
    let mut calls = 0u32;
    let started = Instant::now();
    for i in 0..500u64 {
        let body = job_body(KINDS[(i % 4) as usize], 1 + (i % 2) as usize, i, 0);
        let _ = route(&handle, Method::Post, "/jobs", body.as_bytes());
        let _ = route(&handle, Method::Get, &format!("/jobs/{i}"), b"");
        let _ = route(&handle, Method::Get, &format!("/jobs/{i}/report"), b"");
        let _ = route(&handle, Method::Get, "/healthz", b"");
        calls += 4;
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}
