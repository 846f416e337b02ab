//! The HTTP tier: routing service state over the vendored `tiny_http` server.
//!
//! Routing is a pure function from `(method, url, body)` to a [`Response`]
//! ([`route`]), so the whole API surface is fuzzable and unit-testable without
//! sockets; the socket loop ([`serve`]) only shuttles parsed requests in and
//! responses out. Malformed *transport* (bad framing, oversized fields) never
//! reaches this layer — the vendored server answers it 4xx itself; malformed
//! *content* (bad job specs, unknown ids) is answered here with typed JSON errors.
//!
//! Routes:
//!
//! | Method | Path                | Answer |
//! |--------|---------------------|--------|
//! | GET    | `/healthz`          | `200` `ok` |
//! | POST   | `/jobs`             | `201` `{"id": N}` (body: form-encoded [`JobSpec`]) |
//! | GET    | `/jobs/<id>`        | `200` status JSON |
//! | POST   | `/jobs/<id>/cancel` | `200` status JSON |
//! | GET    | `/jobs/<id>/report` | `200` deterministic report JSON (`409` until done) |
//! | GET    | `/stats`            | `200` counter JSON |
//! | GET    | `/metrics`          | `200` Prometheus text exposition (`nc_obs` registry) |
//!
//! Lock poisoning (a panicked worker holding the queue lock) does not
//! degrade routing to 503: the lock is recovered via the shared policy in
//! [`crate::metrics::recover_lock`] and the event is counted in the
//! `service_lock_poison_recoveries_total` family, so a single crash stays a
//! single crash instead of an outage.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tiny_http::{Method, Response, Server};

use crate::job::{JobId, JobSpec};
use crate::metrics::{recover_lock, ServiceMetrics};
use crate::queue::JobQueue;
use crate::stats::{escape_json, stats_json};

/// Shared handles of the components the HTTP tier fronts.
#[derive(Clone)]
pub struct ServiceHandle {
    /// The job queue (submission, status, cancel).
    pub queue: Arc<Mutex<JobQueue>>,
    /// Wakes idle workers when claimable work appears. Paired with `queue`:
    /// notify and wait only while holding its guard.
    pub work: Arc<Condvar>,
    /// The metric families behind `GET /metrics` and the `/stats` counters.
    pub metrics: Arc<ServiceMetrics>,
}

impl ServiceHandle {
    /// Fresh empty service state with the given queue seed.
    #[must_use]
    pub fn new(seed: u64) -> ServiceHandle {
        ServiceHandle {
            queue: Arc::new(Mutex::new(JobQueue::new(seed))),
            work: Arc::new(Condvar::new()),
            metrics: Arc::new(ServiceMetrics::new()),
        }
    }
}

fn json(status: u16, body: String) -> Response {
    Response::from_string(body)
        .with_status_code(status)
        .with_content_type("application/json")
}

fn error_json(status: u16, message: &str) -> Response {
    json(
        status,
        format!("{{\"error\": \"{}\"}}\n", escape_json(message)),
    )
}

/// Routes one request. Total: every `(method, url, body)` produces a response, and
/// none panics — the HTTP fuzz suite drives this with adversarial inputs. Every
/// response is counted in `service_http_requests_total{status}` on the way out.
#[must_use]
pub fn route(service: &ServiceHandle, method: Method, url: &str, body: &[u8]) -> Response {
    let response = dispatch(service, method, url, body);
    service
        .metrics
        .http_requests
        .with(&response.status_code().to_string())
        .inc();
    response
}

fn dispatch(service: &ServiceHandle, method: Method, url: &str, body: &[u8]) -> Response {
    // A poisoned lock (panicked holder) is recovered and counted, not a 503:
    // the queue is left consistent by every critical section, and the crash
    // itself is already accounted by the worker tier.
    let mut queue = recover_lock(&service.queue, &service.metrics);
    let path = url.split('?').next().unwrap_or(url);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        (Method::Get, ["healthz"]) => Response::from_string("ok\n"),
        (Method::Post, ["jobs"]) => {
            let Ok(body) = std::str::from_utf8(body) else {
                return error_json(422, "submission body is not UTF-8");
            };
            match JobSpec::parse(body) {
                Ok(spec) => {
                    let id = queue.submit(spec);
                    service.work.notify_one();
                    service.metrics.jobs_submitted.inc();
                    json(201, format!("{{\"id\": {id}}}\n"))
                }
                Err(e) => error_json(422, &e.to_string()),
            }
        }
        (Method::Get, ["jobs", id]) => match parse_id(id) {
            Some(id) => match queue.get(id) {
                Some(record) => json(200, format!("{}\n", record.status_json())),
                None => error_json(404, "no such job"),
            },
            None => error_json(404, "job ids are decimal numbers"),
        },
        (Method::Post, ["jobs", id, "cancel"]) => match parse_id(id) {
            Some(id) => match queue.cancel(id) {
                Some(_) => {
                    let record = queue.get(id).expect("cancel implies existence");
                    json(200, format!("{}\n", record.status_json()))
                }
                None => error_json(404, "no such job"),
            },
            None => error_json(404, "job ids are decimal numbers"),
        },
        (Method::Get, ["jobs", id, "report"]) => match parse_id(id) {
            Some(id) => match queue.get(id) {
                Some(record) => match &record.report {
                    Some(report) => json(200, format!("{}\n", report.to_json())),
                    None => error_json(
                        409,
                        &format!("job is {}; no report yet", record.state.as_str()),
                    ),
                },
                None => error_json(404, "no such job"),
            },
            None => error_json(404, "job ids are decimal numbers"),
        },
        (Method::Get, ["stats"]) => json(200, format!("{}\n", stats_json(&service.metrics))),
        (Method::Get, ["metrics"]) => {
            service.metrics.refresh_queue(&queue);
            Response::from_string(service.metrics.render_prometheus())
                .with_content_type("text/plain; version=0.0.4")
        }
        // Known paths with the wrong method get 405, everything else 404.
        (_, ["healthz"] | ["jobs"] | ["stats"] | ["metrics"])
        | (_, ["jobs", _] | ["jobs", _, "cancel"] | ["jobs", _, "report"]) => {
            error_json(405, "method not allowed")
        }
        _ => error_json(404, "no such route"),
    }
}

fn parse_id(token: &str) -> Option<JobId> {
    token.parse().ok()
}

/// How long [`serve`] pauses after an accept error before it accepts again.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// The accept loop: serves routed requests until `stop` is raised (the server's own
/// stopper is raised alongside by the caller). Peer write errors are ignored — the
/// client hung up; there is nobody to answer. An accept error that the server does
/// not skip itself (descriptor exhaustion, say) is counted in
/// `service_http_accept_errors_total` and followed by a short pause, never by an
/// exit: only the server's stop ends the loop. Each request leaves one access-log
/// line on stderr (method, path, status, response bytes), written after the
/// response has been sent — stdout stays reserved
/// for the binary's own protocol output, so `--smoke` stdout is unaffected.
pub fn serve(server: &Server, service: &ServiceHandle, stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match server.recv() {
            Ok(Some(request)) => {
                let method = request.method();
                let url = request.url().to_string();
                let body = request.content().to_vec();
                let response = route(service, method, &url, &body);
                let (status, bytes) = (response.status_code(), response.data().len());
                // Answer first: the client need not wait on the unbuffered stderr write.
                let _ = request.respond(response);
                eprintln!("service: {method} {url} -> {status} ({bytes} bytes)");
            }
            Ok(None) => break,
            Err(_) => {
                service.metrics.http_accept_errors.inc();
                std::thread::sleep(ACCEPT_ERROR_PAUSE);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use crate::worker::run_slice;

    fn body(response: &Response) -> String {
        String::from_utf8_lossy(response.data()).to_string()
    }

    #[test]
    fn submit_status_cancel_report_lifecycle() {
        let service = ServiceHandle::new(5);
        let response = route(&service, Method::Post, "/jobs", b"protocol=square&n=9");
        assert_eq!(response.status_code(), 201);
        assert_eq!(body(&response), "{\"id\": 0}\n");

        let response = route(&service, Method::Get, "/jobs/0", b"");
        assert_eq!(response.status_code(), 200);
        assert!(body(&response).contains("\"state\": \"queued\""));

        // No report before completion.
        assert_eq!(
            route(&service, Method::Get, "/jobs/0/report", b"").status_code(),
            409
        );

        // Drive the job to completion through the queue directly.
        {
            let mut queue = service.queue.lock().expect("queue");
            while queue.has_live_jobs() {
                if let Some(claim) = queue.claim_next() {
                    let (result, seconds) = run_slice(&claim, 1_000_000);
                    queue.complete_slice(claim.id, result, seconds);
                }
            }
            assert_eq!(queue.get(0).expect("record").state, JobState::Done);
        }
        let response = route(&service, Method::Get, "/jobs/0/report", b"");
        assert_eq!(response.status_code(), 200);
        assert!(body(&response).contains("\"completed\": true"));

        // Cancelling a done job is a no-op that still reports the state.
        let response = route(&service, Method::Post, "/jobs/0/cancel", b"");
        assert_eq!(response.status_code(), 200);
        assert!(body(&response).contains("\"state\": \"done\""));

        // No sweep-rows document is served: the path is unknown.
        assert_eq!(
            route(&service, Method::Get, "/stats/rows", b"").status_code(),
            404
        );
    }

    #[test]
    fn content_errors_are_typed_statuses() {
        let service = ServiceHandle::new(5);
        let cases: [(Method, &str, &[u8], u16); 8] = [
            (Method::Post, "/jobs", b"protocol=warp&n=4", 422),
            (Method::Post, "/jobs", b"\xff\xfe", 422),
            (Method::Get, "/jobs/99", b"", 404),
            (Method::Get, "/jobs/not-a-number", b"", 404),
            (Method::Post, "/jobs/99/cancel", b"", 404),
            (Method::Delete, "/jobs", b"", 405),
            (Method::Post, "/stats", b"", 405),
            (Method::Get, "/teapot", b"", 404),
        ];
        for (method, url, body_bytes, expected) in cases {
            let response = route(&service, method, url, body_bytes);
            assert_eq!(response.status_code(), expected, "{method} {url}");
        }
    }

    #[test]
    fn query_strings_are_ignored_in_routing() {
        let service = ServiceHandle::new(5);
        assert_eq!(
            route(&service, Method::Get, "/healthz?probe=1", b"").status_code(),
            200
        );
    }

    #[test]
    fn metrics_route_serves_a_well_formed_scrape() {
        let service = ServiceHandle::new(5);
        let _ = route(&service, Method::Post, "/jobs", b"protocol=square&n=9");
        let response = route(&service, Method::Get, "/metrics", b"");
        assert_eq!(response.status_code(), 200);
        let text = body(&response);
        nc_obs::validate_prometheus_text(&text).expect("well-formed scrape");
        assert!(
            text.contains("service_jobs_submitted_total 1"),
            "the submission must be counted: {text}"
        );
        assert!(
            text.contains("service_queue_depth{tenant=\"default\"} 1"),
            "the queued job must show as depth: {text}"
        );
        assert_eq!(
            route(&service, Method::Post, "/metrics", b"").status_code(),
            405
        );
    }

    /// `/stats` reads the metric counters, so each submission and slice counts once:
    /// the body after a fixed submit-and-run sequence is pinned byte for byte.
    #[test]
    fn stats_body_is_pinned_for_a_fixed_request_sequence() {
        let service = ServiceHandle::new(5);
        for spec in [
            "protocol=square&n=9&tenant=alpha",
            "protocol=line&n=8&tenant=beta&crash_after_slices=1",
            "protocol=counting&n=8&tenant=alpha",
            "protocol=warp&n=4",
        ] {
            let _ = route(&service, Method::Post, "/jobs", spec.as_bytes());
        }
        crate::worker::drain(&service, 64);
        let response = route(&service, Method::Get, "/stats", b"");
        assert_eq!(response.status_code(), 200);
        assert_eq!(
            body(&response),
            "{\"submitted\": 3, \"slices\": 30, \"done\": 3, \"failed\": 0, \"crashes\": 1, \
             \"tenant_slices\": {\"alpha\": 26, \"beta\": 4}}\n"
        );
    }

    #[test]
    fn poisoned_locks_recover_instead_of_answering_503() {
        let service = ServiceHandle::new(5);
        // Poison the queue lock the way a crashed worker would: panic while holding.
        for _ in 0..2 {
            let queue = Arc::clone(&service.queue);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _q = queue.lock().unwrap();
                panic!("worker crash while holding the queue lock");
            }));
        }
        assert!(service.queue.is_poisoned());
        // Routing keeps working — no 503, and the recovery is counted exactly
        // once per poisoning, not once per later request.
        let response = route(&service, Method::Post, "/jobs", b"protocol=line&n=8");
        assert_eq!(response.status_code(), 201);
        assert_eq!(
            route(&service, Method::Get, "/stats", b"").status_code(),
            200
        );
        assert_eq!(
            route(&service, Method::Get, "/jobs/0", b"").status_code(),
            200
        );
        let recoveries = service.metrics.lock_poison_recoveries.value();
        assert!(
            (1..=2).contains(&recoveries),
            "one recovery per poisoned lock, got {recoveries}"
        );
        let scrape = body(&route(&service, Method::Get, "/metrics", b""));
        assert!(
            scrape.contains(&format!(
                "service_lock_poison_recoveries_total {recoveries}"
            )),
            "{scrape}"
        );
    }
}
