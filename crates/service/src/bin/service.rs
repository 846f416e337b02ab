//! The `service` binary: queue + worker pool + HTTP tier in one process.
//!
//! ```text
//! service [--port P] [--workers W] [--slice S] [--seed SEED] [--smoke]
//! ```
//!
//! `--slice` is the number of drawn selections per slice (default 50 000; see
//! `WorkerConfig::slice`). Default mode binds `127.0.0.1:P` (an ephemeral port
//! when `--port 0`), prints the bound address, and serves until killed. `--smoke`
//! is the CI gate: bind an ephemeral port, then act as the service's own HTTP
//! client — submit one Square job plus a crash-injected twin, poll both to
//! completion over real sockets, fetch the reports, and require the
//! crash-recovered report to be byte-identical to the uncrashed one. A sharded
//! line n=1024 job, which crosses several slice boundaries, must serve the report
//! of one unsliced in-process run. The gate then scrapes `GET /metrics` and fails on a
//! structurally ill-formed exposition or any missing required family
//! (`nc_service::metrics::REQUIRED_FAMILIES`). Exits 0 on success, 1 with a
//! diagnostic on any failure.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use nc_service::client;
use nc_service::http::{serve, ServiceHandle};
use nc_service::worker::{spawn_pool, stop_pool, WorkerConfig};
use nc_service::{JobReport, JobRunner, JobSpec, SliceOutcome};
use tiny_http::Server;

struct Args {
    port: u16,
    workers: usize,
    slice: u64,
    seed: u64,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 7878,
        workers: 2,
        slice: 50_000,
        seed: 0xC0FFEE,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut numeric = |what: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{what} needs a value"))?
                .parse()
                .map_err(|_| format!("{what} needs a number"))
        };
        match arg.as_str() {
            "--port" => {
                args.port =
                    u16::try_from(numeric("--port")?).map_err(|_| "--port is 16-bit".to_string())?
            }
            "--workers" => {
                args.workers = usize::try_from(numeric("--workers")?).unwrap_or(1).max(1)
            }
            "--slice" => args.slice = numeric("--slice")?.max(1),
            "--seed" => args.seed = numeric("--seed")?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let port = if args.smoke { 0 } else { args.port };
    let server = match Server::http(("127.0.0.1", port)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("service: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.server_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("service: no local address: {e}");
            return ExitCode::FAILURE;
        }
    };
    let service = ServiceHandle::new(args.seed);
    let stop = Arc::new(AtomicBool::new(false));
    let config = WorkerConfig {
        // Smoke mode forces small slices so the crash-injected job exercises
        // several checkpoint/resume boundaries even on a tiny population.
        slice: if args.smoke {
            args.slice.min(256)
        } else {
            args.slice
        },
        ..WorkerConfig::default()
    };
    let workers = spawn_pool(&service, &stop, config, args.workers);
    println!(
        "service: listening on http://{addr} ({} workers)",
        args.workers
    );

    let outcome = if args.smoke {
        let stopper = server.stopper();
        let service_for_http = service.clone();
        let stop_for_http = Arc::clone(&stop);
        let http_thread =
            std::thread::spawn(move || serve(&server, &service_for_http, &stop_for_http));
        let result = smoke(addr);
        stop_pool(&service, &stop);
        stopper.stop();
        let _ = http_thread.join();
        result
    } else {
        serve(&server, &service, &stop);
        stop_pool(&service, &stop);
        Ok(())
    };
    for worker in workers {
        let _ = worker.join();
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("service: smoke FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The self-contained smoke gate (see the module docs). Slices are kept small so
/// the crash-injected job genuinely exercises checkpoint/resume several times.
fn smoke(addr: SocketAddr) -> Result<(), String> {
    let submit = |body: &str| -> Result<u64, String> {
        let exchange =
            client::request(addr, "POST", "/jobs", body).map_err(|e| format!("submit: {e}"))?;
        if exchange.status != 201 {
            return Err(format!(
                "submit answered {}: {}",
                exchange.status, exchange.body
            ));
        }
        exchange
            .body
            .trim()
            .trim_start_matches("{\"id\": ")
            .trim_end_matches('}')
            .parse()
            .map_err(|_| format!("unparsable submit answer: {}", exchange.body))
    };

    let health =
        client::request(addr, "GET", "/healthz", "").map_err(|e| format!("health: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz answered {}", health.status));
    }

    let clean = submit("protocol=square&n=16&seed=11&tenant=smoke")?;
    let crashed = submit("protocol=square&n=16&seed=11&tenant=smoke&crash_after_slices=1")?;
    let sharded_body = "protocol=line&n=1024&seed=11&mode=sharded&tenant=smoke";
    let sharded = submit(sharded_body)?;

    for id in [clean, crashed, sharded] {
        let last = client::poll_until(
            addr,
            &format!("/jobs/{id}"),
            3000,
            Duration::from_millis(5),
            |exchange| {
                exchange.body.contains("\"state\": \"done\"")
                    || exchange.body.contains("\"state\": \"failed\"")
            },
        )
        .map_err(|e| format!("poll job {id}: {e}"))?;
        if !last.body.contains("\"state\": \"done\"") {
            return Err(format!("job {id} did not finish: {}", last.body));
        }
    }

    let report = |id: u64| -> Result<String, String> {
        let exchange = client::request(addr, "GET", &format!("/jobs/{id}/report"), "")
            .map_err(|e| format!("report {id}: {e}"))?;
        if exchange.status != 200 {
            return Err(format!("report {id} answered {}", exchange.status));
        }
        Ok(exchange.body)
    };
    let clean_report = report(clean)?;
    let crashed_report = report(crashed)?;
    if clean_report != crashed_report {
        return Err(format!(
            "crash-recovered report diverged:\n  clean:   {clean_report}  crashed: {crashed_report}"
        ));
    }
    if !clean_report.contains("\"completed\": true") {
        return Err(format!(
            "report does not confirm completion: {clean_report}"
        ));
    }

    // A sharded job's report is a function of its spec alone: the sliced service
    // run must equal one unsliced in-process run.
    let spec = JobSpec::parse(sharded_body).map_err(|e| format!("sharded spec: {e}"))?;
    let mut runner = JobRunner::start(&spec);
    let SliceOutcome::Finished { completed } = runner.advance(u64::MAX, spec.step_budget) else {
        return Err("the unsliced in-process sharded run did not finish".to_string());
    };
    let unsliced = format!(
        "{}\n",
        JobReport::from_runner(&spec, &runner, completed).to_json()
    );
    let sharded_report = report(sharded)?;
    if sharded_report != unsliced {
        return Err(format!(
            "sliced sharded report diverged from the unsliced run:\n  served:    {sharded_report}  unsliced:  {unsliced}"
        ));
    }
    let sharded_status = client::request(addr, "GET", &format!("/jobs/{sharded}"), "")
        .map_err(|e| format!("status: {e}"))?;
    let slices: Option<u64> = sharded_status
        .body
        .split("\"slices\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok());
    if slices.is_none_or(|slices| slices < 4) {
        return Err(format!(
            "the sharded job must run in at least 4 slices: {}",
            sharded_status.body
        ));
    }

    let crashed_status = client::request(addr, "GET", &format!("/jobs/{crashed}"), "")
        .map_err(|e| format!("status: {e}"))?;
    if !crashed_status.body.contains("\"crashes\": 1") {
        return Err(format!(
            "the injected crash did not register: {}",
            crashed_status.body
        ));
    }

    // The metrics gate: the scrape must be structurally valid Prometheus text,
    // expose every required family, and reflect the work the smoke run just did.
    let scrape =
        client::request(addr, "GET", "/metrics", "").map_err(|e| format!("metrics: {e}"))?;
    if scrape.status != 200 {
        return Err(format!("/metrics answered {}", scrape.status));
    }
    nc_obs::validate_prometheus_text(&scrape.body)
        .map_err(|e| format!("/metrics scrape is ill-formed: {e}"))?;
    for family in nc_service::metrics::REQUIRED_FAMILIES {
        if !scrape.body.contains(&format!("# TYPE {family} ")) {
            return Err(format!("/metrics scrape is missing family {family}"));
        }
    }
    for evidence in [
        "service_jobs_submitted_total 3",
        "service_jobs_done_total 3",
        "service_crashes_total 1",
        "service_retries_total 1",
    ] {
        if !scrape.body.contains(evidence) {
            return Err(format!(
                "/metrics does not reflect the smoke run (expected {evidence:?}):\n{}",
                scrape.body
            ));
        }
    }

    println!(
        "service: smoke PASSED (clean and crash-recovered reports identical; sliced sharded report equals the unsliced run; /metrics well-formed, {} families)",
        nc_service::metrics::REQUIRED_FAMILIES.len()
    );
    Ok(())
}
