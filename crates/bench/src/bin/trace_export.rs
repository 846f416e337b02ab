//! Exports the step-indexed structured trace of a pinned run as a Chrome
//! trace-event JSON document (loadable in `about://tracing` / Perfetto's legacy
//! importer).
//!
//! Events are stamped `(lifetime_step, lane)` — never wall clock — and the lane
//! is a fixed partition of node ids, so the export of a pinned run is a
//! *byte-reproducible* artifact: same protocol, seed and step count ⇒ same bytes.
//! That turns the exporter into a determinism oracle on top of a debugging aid.
//!
//! ```text
//! cargo run -p nc-bench --release --bin trace_export -- --out trace.json
//! cargo run -p nc-bench --release --bin trace_export -- --protocol line --n 32 --steps 500
//! cargo run -p nc-bench --release --bin trace_export -- --smoke   # CI determinism gate
//! ```
//!
//! `--smoke` runs pinned configurations (Square n = 16 seed 42, GlobalLine and
//! Counting-on-a-Line n = 32, sharded sampling, 200 driver steps plus one
//! checkpoint) and requires, at several cut points `k`, the events a fresh run
//! emits after its `k`-th driver step to export **byte-identically** to the trace
//! of a run checkpointed at step `k`, resumed, and only then given telemetry. It
//! also requires the full Square trace to contain every event family the
//! simulator is expected to emit on that run (selection, merge, index flush,
//! class allocation, checkpoint). Nothing is written to disk in smoke mode.

use nc_core::{
    SamplingMode, Simulation, SimulationConfig, SnapshotProtocol, Telemetry, TraceEvent,
};
use nc_obs::chrome_trace_json;
use nc_protocols::counting_line::CountingOnALine;
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;
use std::process::ExitCode;

/// The pinned smoke configuration (mirrors the replay fixture's spirit: small,
/// fast, committed in code so the gate cannot drift silently).
const SMOKE_N: usize = 16;
const SMOKE_SEED: u64 = 42;
const SMOKE_STEPS: u64 = 200;

/// The smoke runs: `(protocol, n, cut points in driver steps)`, all at seed
/// [`SMOKE_SEED`] over [`SMOKE_STEPS`] driver steps.
const SMOKE_RUNS: [(&str, usize, &[u64]); 3] = [
    ("square", SMOKE_N, &[1, 10, 50, 100, 150]),
    ("line", 32, &[1, 100]),
    ("counting", 32, &[1, 100]),
];

/// The trace of one run.
struct Traced {
    events: Vec<TraceEvent>,
    /// Events the bounded ring evicted.
    dropped: u64,
    /// Entry `k`: how many events the run had emitted after `k` driver steps.
    after_step: Vec<usize>,
}

/// Runs up to `steps` driver steps of one protocol with telemetry attached, then
/// takes one checkpoint so the export exercises the `checkpoint` event family too.
/// With `resume_at = Some(k)` the run goes untraced for `k` driver steps, is
/// checkpointed, resumed from the snapshot, and only then gets telemetry.
fn traced_run<P: SnapshotProtocol>(
    make: impl Fn() -> P,
    n: usize,
    seed: u64,
    steps: u64,
    resume_at: Option<u64>,
) -> Result<Traced, String> {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_sampling(SamplingMode::Sharded);
    let mut sim = Simulation::new(make(), config);
    if resume_at.is_none() {
        sim.set_telemetry(Telemetry::enabled());
    }
    let mut after_step = vec![0];
    for taken in 0..steps {
        if resume_at == Some(taken) {
            let snapshot = sim.checkpoint().map_err(|e| e.to_string())?;
            sim = Simulation::resume(make(), &snapshot).map_err(|e| e.to_string())?;
            sim.set_telemetry(Telemetry::enabled());
        }
        if !sim.step() {
            break;
        }
        after_step.push(sim.telemetry().trace_events().len());
    }
    sim.checkpoint().map_err(|e| e.to_string())?;
    Ok(Traced {
        events: sim.telemetry().trace_events(),
        dropped: sim.telemetry().trace_dropped(),
        after_step,
    })
}

fn traced_run_by_name(
    protocol: &str,
    n: usize,
    seed: u64,
    steps: u64,
    resume_at: Option<u64>,
) -> Result<Traced, String> {
    match protocol {
        "line" => traced_run(GlobalLine::new, n, seed, steps, resume_at),
        "square" => traced_run(Square::new, n, seed, steps, resume_at),
        "counting" => traced_run(|| CountingOnALine::new(2), n, seed, steps, resume_at),
        other => Err(format!(
            "unknown protocol {other:?} (use line,square,counting)"
        )),
    }
}

/// The determinism gate: past every cut point, a fresh run's export must equal
/// the export of its resumed twin byte for byte, and the full Square trace must
/// contain every expected event family.
fn smoke() -> Result<(), String> {
    let mut compared = 0;
    for (protocol, n, cuts) in SMOKE_RUNS {
        let name = format!("{protocol}-n{n}-seed{SMOKE_SEED}");
        let fresh = traced_run_by_name(protocol, n, SMOKE_SEED, SMOKE_STEPS, None)?;
        if fresh.dropped != 0 {
            return Err(format!(
                "{name}: trace overflowed the ring ({} dropped): raise the capacity or shrink the run",
                fresh.dropped
            ));
        }
        if protocol == "square" {
            let full = chrome_trace_json(&fresh.events, &name);
            for family in [
                "selection",
                "merge",
                "index_flush",
                "class_alloc",
                "checkpoint",
            ] {
                if !full.contains(&format!("\"name\":\"{family}\"")) {
                    return Err(format!(
                        "pinned run emitted no {family:?} event — an instrumentation hook went missing"
                    ));
                }
            }
        }
        for &cut in cuts {
            let Some(&start) = fresh.after_step.get(cut as usize) else {
                return Err(format!("{name}: the run went dry before driver step {cut}"));
            };
            let resumed = traced_run_by_name(protocol, n, SMOKE_SEED, SMOKE_STEPS, Some(cut))?;
            let want = chrome_trace_json(&fresh.events[start..], &name);
            let got = chrome_trace_json(&resumed.events, &name);
            if want != got {
                return Err(format!(
                    "{name}: the trace after a resume at driver step {cut} differs from the \
                     uninterrupted run's ({} vs {} events, {} vs {} bytes)",
                    resumed.events.len(),
                    fresh.events.len() - start,
                    got.len(),
                    want.len()
                ));
            }
            compared += 1;
        }
    }
    println!(
        "trace_export smoke ok: {compared} resumed traces byte-identical to their uninterrupted runs"
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let parse = |name: &str, default: u64| -> Result<u64, String> {
        flag_value(name).map_or(Ok(default), |raw| {
            raw.parse()
                .map_err(|_| format!("{name}: not a number: {raw:?}"))
        })
    };
    let protocol = flag_value("--protocol").unwrap_or_else(|| "square".to_string());
    let n = parse("--n", SMOKE_N as u64)? as usize;
    let seed = parse("--seed", SMOKE_SEED)?;
    let steps = parse("--steps", SMOKE_STEPS)?;
    let out_path = flag_value("--out").unwrap_or_else(|| "TRACE_export.json".to_string());

    let traced = traced_run_by_name(&protocol, n, seed, steps, None)?;
    let name = format!("{protocol}-n{n}-seed{seed}");
    let json = chrome_trace_json(&traced.events, &name);
    std::fs::write(&out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!(
        "wrote {out_path}: {} events ({} dropped from the ring), {} bytes",
        traced.events.len(),
        traced.dropped,
        json.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("trace_export: {message}");
            ExitCode::FAILURE
        }
    }
}
