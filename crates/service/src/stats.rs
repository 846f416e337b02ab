//! The results/stats component: the `/stats` counter block.
//!
//! `/stats` is a live counter block (submissions, slices, completions, failures,
//! crashes, per-tenant slice shares — the observable side of the weighted round-robin
//! fairness claim), rendered from the [`ServiceMetrics`] counters that `/metrics`
//! exposes too, so each event is counted once. A finished job's results are its
//! deterministic [`JobReport`](crate::runner::JobReport), served by
//! `GET /jobs/<id>/report`.

use crate::metrics::ServiceMetrics;

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
    use crate::queue::{Claim, SliceResult};
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
    fn json_escaping_neutralises_control_and_quote_bytes() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
