//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <engine-large-n|engine-small-n|service-mixed> \
//!     --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input (run lists, job mixes, job seeds)
//! is drawn from `--seed`. Each workload sets up [`SETUP_REPEATS`] times (the
//! median is `setup_s`), then measures its workload for `--seconds` and checks
//! every output. `--trace 0` prints the end-to-end metrics, with timings scaled
//! to a reference host speed (see [`calibrate`]); `--trace 1` runs the same
//! inputs with timers around calls into the crates' public functions and prints
//! the per-layer metrics, unscaled (0 for a layer the workload does not
//! exercise). Earlier stdout lines carry the stamp (commit, source fingerprint,
//! CPUs, build profile, compiler) and human-readable detail, raw timings
//! included; the last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod calibrate;
mod engine;
mod scrape;
mod service;
mod stamp;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// How often a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;

/// What one workload run produced: named values of the metrics below.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Every end-to-end metric and its unit, in print order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("eff_steps_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric and its unit, in print order. A traced run prints all
/// of them; the ones its workload does not exercise read 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("scheduler.sample_ns_per_call", "ns"),
    ("scheduler.calls", "count/run"),
    ("scheduler.credits_per_call", "count"),
    ("world.apply_ns_per_call", "ns"),
    ("world.apply_self_ns_per_call", "ns"),
    ("world.effective_ratio", "ratio"),
    ("world.merges", "count/run"),
    ("world.splits", "count/run"),
    ("index.is_stable_ns_total", "ns/run"),
    ("index.is_stable_calls", "count/run"),
    ("index.node_scans", "count/run"),
    ("index.flush_ms", "ms/run"),
    ("simulation.new_ms", "ms"),
    ("popproto.run_ms", "ms"),
    ("trace.overhead_ms", "ms/run"),
    ("runner.resume_ms.shards1", "ms"),
    ("runner.resume_ms.shards2", "ms"),
    ("runner.advance_ms.shards1", "ms"),
    ("runner.advance_ms.shards2", "ms"),
    ("runner.checkpoint_ms.shards1", "ms"),
    ("runner.checkpoint_ms.shards2", "ms"),
    ("snapshot.bytes.shards1", "bytes"),
    ("snapshot.bytes.shards2", "bytes"),
    ("queue.slices_per_job", "count"),
    ("queue.wait_ms", "ms"),
    ("worker.busy_ratio", "ratio"),
    ("runner.job_share", "ratio"),
    ("http.post_jobs_ms", "ms"),
    ("http.get_job_ms", "ms"),
    ("http.get_report_ms", "ms"),
    ("http.route_us", "us"),
    ("http.poll_useful_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "engine-large-n" => engine::run(
            engine::Workload::LargeN,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "engine-small-n" => engine::run(
            engine::Workload::SmallN,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "service-mixed" => match service::run(args.seed, args.seconds, args.trace) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: service-mixed could not run: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!(
                "perfbench: unknown workload {other} (engine-large-n, engine-small-n, service-mixed)"
            );
            return ExitCode::from(2);
        }
    };
    println!("perfbench: stamp {}", stamp::stamp_json());
    println!("{}", result_json(&outcome, args.trace));
    ExitCode::SUCCESS
}

/// Prints the sample count and median latency of each kind of run or job.
pub fn print_by_kind(by_kind: &BTreeMap<String, Vec<f64>>) {
    for (kind, ms) in by_kind {
        println!(
            "perfbench: {kind}: {} runs, median {:.3} ms",
            ms.len(),
            stats::median(ms)
        );
    }
}

/// The result line: every metric of the run's table (end-to-end, or per-layer
/// when traced), 0 where the workload produced no value. A traced run whose
/// loop diverged from its plain twin produced no values and prints none.
fn result_json(outcome: &Outcome, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &outcome.metrics {
        assert!(
            table.iter().any(|(t, _)| t == name),
            "{name} is not a metric of this run's table"
        );
    }
    let body: Vec<String> = if outcome.metrics.is_empty() {
        Vec::new()
    } else {
        table
            .iter()
            .map(|&(name, unit)| {
                let value = outcome
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_traced_result_lists_every_per_layer_metric() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("world.merges", 2.5)],
        };
        let line = result_json(&outcome, true);
        for (name, _) in PER_LAYER {
            assert!(
                line.contains(&format!("\"{name}\"")),
                "{name} missing: {line}"
            );
        }
        assert!(line.contains("\"world.merges\": {\"value\": 2.5, \"unit\": \"count/run\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
    }

    #[test]
    fn a_diverged_trace_prints_no_layer_numbers() {
        let outcome = Outcome {
            attempted: 2,
            failed: 1,
            metrics: Vec::new(),
        };
        assert_eq!(
            result_json(&outcome, true),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
