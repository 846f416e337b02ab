//! The results/stats component: the `/stats` counter block and sweep-row export.
//!
//! Two views are served. `/stats` is a live counter block (submissions, slices,
//! completions, failures, crashes, per-tenant slice shares — the observable side of
//! the weighted round-robin fairness claim), rendered from the [`ServiceMetrics`]
//! counters that `/metrics` exposes too, so each event is counted once. `/stats/rows`
//! renders every **finished** job as a [`SweepRow`], the exact row schema of
//! `BENCH_scheduler.json` (`nc_bench::sweep`), so the sweep binary's offline baseline
//! and the service's online results are readable by the same tooling. Wall-clock
//! fields in those rows are measured, not deterministic; the deterministic artifact is
//! the job's [`JobReport`](crate::runner::JobReport).

use nc_bench::sweep::SweepRow;

use crate::job::JobState;
use crate::metrics::ServiceMetrics;
use crate::queue::JobQueue;

/// The `/stats` counter block as one JSON object: jobs submitted, productive slices
/// (parked or finished; crashed slices count separately), jobs done and failed,
/// absorbed worker crashes, and productive slices per tenant (the fairness
/// observable).
#[must_use]
pub fn stats_json(metrics: &ServiceMetrics) -> String {
    let tenant_slices = metrics.slices.values();
    let slices: u64 = tenant_slices.iter().map(|(_, slices)| slices).sum();
    let tenants = tenant_slices
        .iter()
        .map(|(tenant, slices)| format!("\"{}\": {}", escape_json(tenant), slices))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"submitted\": {}, \"slices\": {}, \"done\": {}, \"failed\": {}, \"crashes\": {}, \"tenant_slices\": {{{}}}}}",
        metrics.jobs_submitted.value(),
        slices,
        metrics.jobs_done.value(),
        metrics.jobs_failed.value(),
        metrics.crashes.value(),
        tenants
    )
}

/// Renders every finished job of the queue as a `BENCH_scheduler.json`-style rows
/// document (the same [`SweepRow::to_json`] bytes the sweep binary emits).
#[must_use]
pub fn rows_json(queue: &JobQueue) -> String {
    let rows: Vec<String> = queue
        .records()
        .iter()
        .filter(|record| record.state == JobState::Done)
        .filter_map(|record| {
            let report = record.report.as_ref()?;
            let seconds = record.seconds.max(1e-9);
            Some(
                SweepRow {
                    protocol: report.protocol.clone(),
                    n: report.n,
                    mode: report.mode.clone(),
                    shards: report.shards,
                    seed: report.seed,
                    seconds: record.seconds,
                    steps: report.steps,
                    effective_steps: report.effective_steps,
                    skipped_steps: report.skipped_steps,
                    steps_per_sec: report.steps as f64 / seconds,
                    completed: report.completed,
                    snapshot_ms: 0.0,
                    resume_ms: 0.0,
                    // Per-job phase profiling is not wired through the service
                    // runner; plain rows keep the original schema.
                    profile: None,
                }
                .to_json(),
            )
        })
        .collect();
    format!("{{\n  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// Escapes a string for embedding in a JSON string literal (tenant names and error
/// messages are tenant-controlled input).
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, ProtocolKind};
    use crate::queue::{Claim, JobQueue, SliceResult};
    use crate::runner::JobReport;

    #[test]
    fn counters_track_slice_outcomes() {
        let metrics = ServiceMetrics::new();
        let claim = |tenant: &str| Claim {
            id: 0,
            spec: JobSpec {
                tenant: tenant.to_string(),
                ..JobSpec::new(ProtocolKind::Square, 4)
            },
            snapshot: None,
            slices: 0,
            crashes: 0,
            steps: 0,
            queued_age_picks: 0,
        };
        metrics.record_slice(
            &claim("a"),
            &SliceResult::Parked {
                snapshot: vec![],
                steps: 1,
            },
            0.0,
        );
        metrics.record_slice(
            &claim("a"),
            &SliceResult::Done {
                report: JobReport {
                    protocol: "square".into(),
                    n: 4,
                    seed: 1,
                    mode: "indexed".into(),
                    shards: 1,
                    steps: 10,
                    effective_steps: 5,
                    skipped_steps: 0,
                    completed: true,
                },
                steps: 10,
            },
            0.0,
        );
        metrics.record_slice(
            &claim("b"),
            &SliceResult::Crashed {
                message: "x".into(),
            },
            0.0,
        );
        assert_eq!(metrics.jobs_done.value(), 1);
        assert_eq!(metrics.crashes.value(), 1);
        assert_eq!(metrics.slices.values(), vec![("a".to_string(), 2)]);
        assert_eq!(
            stats_json(&metrics),
            "{\"submitted\": 0, \"slices\": 2, \"done\": 1, \"failed\": 0, \"crashes\": 1, \"tenant_slices\": {\"a\": 2}}"
        );
    }

    #[test]
    fn rows_document_has_the_sweep_schema() {
        let mut queue = JobQueue::new(1);
        let id = queue.submit(JobSpec::new(ProtocolKind::Square, 9));
        let claim = queue.claim_next().expect("claim");
        let (result, seconds) = crate::worker::run_slice(&claim, 1_000_000);
        queue.complete_slice(id, result, seconds);
        let doc = rows_json(&queue);
        for key in [
            "\"rows\"",
            "\"protocol\": \"square\"",
            "\"steps_per_sec\"",
            "\"completed\": true",
        ] {
            assert!(doc.contains(key), "{key} missing in {doc}");
        }
    }

    #[test]
    fn json_escaping_neutralises_control_and_quote_bytes() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
