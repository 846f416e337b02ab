//! The scheduler n-sweep: `GlobalLine`, `Square` and `CountingOnALine` run to
//! completion under the legacy rejection sampler, the adaptive indexed sampler and the
//! sharded geometric-jump sampler at 1, 2 and 4 shards, on the same seed, for
//! n = 64 … 1024, plus sharded-only rows at large n (line 16384/65536/262144, square
//! 16384, counting 16384/65536). Emits `BENCH_scheduler.json` (steps/sec and speedup
//! per size), the perf baseline that later changes compare against.
//!
//! "Steps" follow the paper's convention — every scheduler selection counts, and the
//! sharded sampler's bulk-credited ineffective selections are included (they have the
//! same distribution as one-at-a-time draws; see the geometric-jump invariant in
//! `nc_core::scheduler`), so steps/sec across modes compares like for like. The three
//! sharded rows of one (protocol, n) cell run the same seed at 1, 2 and 4 shards and
//! must report **identical step counts** — the parallel-equivalence property the
//! sharded runtime guarantees (shard count is layout, not semantics).
//!
//! ```text
//! cargo run -p nc-bench --release --bin scheduler_sweep            # writes BENCH_scheduler.json
//! cargo run -p nc-bench --release --bin scheduler_sweep -- --out /dev/stdout
//! cargo run -p nc-bench --release --bin scheduler_sweep -- --smoke # CI gate, see below
//! cargo run -p nc-bench --release --bin scheduler_sweep -- --profile # per-phase columns
//! ```
//!
//! `--protocols` takes a comma-separated list of either the short names
//! (`line,square,counting`) or the rows' own protocol names (`global-line`,
//! `square`, `counting-on-a-line`). `--sizes` replaces the default size list for every
//! protocol; sizes above a protocol's size cap run the sharded rows only (a note on
//! stderr says so).
//!
//! `--profile` attaches a telemetry handle to every benchmarked run and emits the
//! per-phase wall-clock breakdown (sample/apply/flush) both on stderr and as extra row
//! columns (`nc_bench::sweep::SweepProfile`). The smoke gates always run unprofiled —
//! the throughput comparisons stay free of instrumentation overhead.
//!
//! Each cell additionally runs the three deterministic adversarial-but-fair schedulers
//! (`nc_core::adversary`: round-robin, worst-case, eclipse) at n ≤ 128 — they must
//! still reach the guaranteed outcome, pinning fairness-despite-adversity in the
//! artifact alongside the throughput rows.
//!
//! `--smoke` asserts that every mode completes with the protocol's guaranteed outcome
//! at n = 256 (including the three adversaries at n = 64, which must also be
//! bit-deterministic across two runs), plus three gates: sharded@1 achieves at least
//! the indexed steps/sec at n = 256, the sharded rows report identical step counts at
//! 1, 2 and 4 shards, and (when the line is selected) the flat-cost gate — sharded@1
//! seconds per effective step on GlobalLine n = 65536 stay within 2.5× the n = 1024
//! figure of the same run (best of three runs each; a ratio, so the host's absolute
//! speed cancels).
//!
//! Per-protocol caps keep the sweep finite: the legacy sampler's full-scan stability
//! checks cost `O(n²·ports²)` per probe, which at GlobalLine n = 1024 is ~13 minutes
//! (recorded once in PR 1) and far worse for Square, whose single productive port pair
//! drives the step count towards `Θ(n³)` — Square n = 512 already needs ~3·10⁸
//! selections and n = 1024 exceeds 2·10⁹ — so legacy rows stop at 512 (line), 128
//! (square) and 1024 (counting), and indexed rows at 512 (square) and 1024 (line,
//! counting). Above those size caps only the sharded rows run, whose geometric jumps
//! credit the ineffective selections in bulk. `--legacy-max` can lower (never raise)
//! the legacy caps.

use nc_bench::sweep::{SweepProfile, SweepRow};
use nc_core::scheduler::Scheduler;
use nc_core::{
    EclipseScheduler, RoundRobinScheduler, RunReport, SamplingMode, Simulation, SimulationConfig,
    SnapshotProtocol, StopReason, Telemetry, WorstCaseScheduler,
};
use nc_protocols::counting_line::{final_count, CountingOnALine};
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Proto {
    Line,
    Square,
    Counting,
}

impl Proto {
    fn name(self) -> &'static str {
        match self {
            Proto::Line => "global-line",
            Proto::Square => "square",
            Proto::Counting => "counting-on-a-line",
        }
    }

    /// Parses a `--protocols` entry: the short name or the rows' protocol name.
    fn parse(name: &str) -> Option<Proto> {
        match name {
            "line" | "global-line" => Some(Proto::Line),
            "square" => Some(Proto::Square),
            "counting" | "counting-on-a-line" => Some(Proto::Counting),
            _ => None,
        }
    }

    /// Largest population the legacy rejection sampler is run at (see module docs).
    fn legacy_cap(self) -> usize {
        match self {
            Proto::Line => 512,
            Proto::Square => 128,
            Proto::Counting => 1024,
        }
    }

    /// Largest population the legacy and indexed samplers are run at (Square's step
    /// count explodes past 512); larger sizes run the sharded rows only.
    fn size_cap(self) -> usize {
        match self {
            Proto::Square => 512,
            Proto::Line | Proto::Counting => 1024,
        }
    }

    /// The sharded-only sizes the default sweep adds above the size cap.
    fn large_sizes(self) -> &'static [usize] {
        match self {
            Proto::Line => &[16_384, 65_536, 262_144],
            Proto::Square => &[16_384],
            Proto::Counting => &[16_384, 65_536],
        }
    }
}

/// One benchmarked execution: a sampling mode plus (for sharded rows) the shard count.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ModeSpec {
    mode: SamplingMode,
    shards: usize,
    label: &'static str,
}

const MODES: [ModeSpec; 5] = [
    ModeSpec {
        mode: SamplingMode::Legacy,
        shards: 1,
        label: "legacy",
    },
    ModeSpec {
        mode: SamplingMode::Adaptive,
        shards: 1,
        label: "indexed",
    },
    ModeSpec {
        mode: SamplingMode::Sharded,
        shards: 1,
        label: "sharded1",
    },
    ModeSpec {
        mode: SamplingMode::Sharded,
        shards: 2,
        label: "sharded2",
    },
    ModeSpec {
        mode: SamplingMode::Sharded,
        shards: 4,
        label: "sharded4",
    },
];

/// Row type shared with the `nc-service` stats tier (`nc_bench::sweep`): the sweep
/// binary and the serving tier emit the same JSON schema.
type Row = SweepRow;

/// Times one `checkpoint()` and one `resume()` of the finished run (milliseconds),
/// sanity-checking that the round trip reproduces the statistics — so the bench
/// artifact doubles as a coarse end-of-run snapshot-exactness probe on every cell.
fn snapshot_timings<P: SnapshotProtocol>(protocol: P, sim: &Simulation<P>) -> (f64, f64) {
    let started = Instant::now();
    let snapshot = sim.checkpoint().expect("checkpoint");
    let snapshot_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let resumed = Simulation::resume(protocol, &snapshot).expect("end-of-run snapshot resumes");
    let resume_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        resumed.stats(),
        sim.stats(),
        "a resumed end-of-run snapshot must carry the statistics verbatim"
    );
    (snapshot_ms, resume_ms)
}

/// Step ceiling of the uniform-scheduler rows. The sharded rows credit ineffective
/// selections in bulk — GlobalLine n = 65536 needs more than 2·10⁹ — so the ceiling
/// only exists to turn a run that never stops into a failed row instead of a hang.
const MAX_STEPS: u64 = 1 << 50;

/// Runs one protocol to its completion condition and checks the guaranteed outcome:
/// the spanning line, the ⌊√n⌋ square for perfect squares, or a halted counting leader.
fn run_one(proto: Proto, n: usize, seed: u64, spec: ModeSpec, profile: bool) -> Row {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_max_steps(MAX_STEPS)
        .with_sampling(spec.mode)
        .with_shards(spec.shards);
    let obs = if profile {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let started = Instant::now();
    let (report, stats, completed, timings) = match proto {
        Proto::Line => {
            let mut sim = Simulation::new(GlobalLine::new(), config);
            sim.set_telemetry(obs.clone());
            let report = sim.run_until_stable();
            let ok = report.reason == StopReason::Stable;
            assert!(
                !ok || sim.output_shape().is_line(n),
                "a stable GlobalLine run must produce the spanning line"
            );
            let timings = snapshot_timings(GlobalLine::new(), &sim);
            (report, sim.stats(), ok, timings)
        }
        Proto::Square => {
            let mut sim = Simulation::new(Square::new(), config);
            sim.set_telemetry(obs.clone());
            let report = sim.run_until_stable();
            let ok = report.reason == StopReason::Stable;
            let d = (n as f64).sqrt() as u32;
            assert!(
                !ok || (d as usize * d as usize != n) || sim.output_shape().is_full_square(d),
                "a stable Square run on a perfect-square population must produce the square"
            );
            let timings = snapshot_timings(Square::new(), &sim);
            (report, sim.stats(), ok, timings)
        }
        Proto::Counting => {
            let mut sim = Simulation::new(CountingOnALine::new(2), config);
            sim.set_telemetry(obs.clone());
            let report = sim.run_until_any_halted();
            let ok = report.reason == StopReason::AllHalted;
            assert!(
                !ok || final_count(&sim).is_some(),
                "a halted counting run must leave a halted leader"
            );
            let timings = snapshot_timings(CountingOnALine::new(2), &sim);
            (report, sim.stats(), ok, timings)
        }
    };
    // The run's wall-clock is measured before the snapshot probe but the probe runs
    // inside the `match`, so subtract it from the elapsed time.
    let seconds = started.elapsed().as_secs_f64() - (timings.0 + timings.1) / 1e3;
    Row {
        protocol: proto.name().to_string(),
        n,
        mode: spec.label.to_string(),
        shards: spec.shards,
        seed,
        seconds,
        steps: report.steps,
        effective_steps: report.effective_steps,
        skipped_steps: stats.skipped_steps,
        steps_per_sec: report.steps as f64 / seconds.max(1e-9),
        completed,
        snapshot_ms: timings.0,
        resume_ms: timings.1,
        profile: profile.then(|| SweepProfile::from_run(&report.phases)),
    }
}

/// The adversarial-but-fair schedulers (see `nc_core::adversary`), run as extra rows
/// at small n: they are deterministic worst cases, not samplers, so they are compared
/// on completion and determinism rather than throughput. Population capped because
/// their pair views re-enumerate all permissible pairs on every world change.
const ADVERSARIES: [&str; 3] = ["round-robin", "worst-case", "eclipse"];
const ADVERSARY_CAP: usize = 128;
const ADVERSARY_PATIENCE: u64 = 8;

/// Runs one protocol to completion under a named adversarial scheduler and checks the
/// same guaranteed outcome as `run_one`. Snapshot timings are zero: checkpoints are
/// deliberately only offered for the uniform scheduler (PR 5), so adversary rows
/// carry no snapshot probe.
fn run_adversary(proto: Proto, n: usize, adversary: &'static str) -> Row {
    fn go<P: SnapshotProtocol, S: Scheduler>(
        protocol: P,
        n: usize,
        halt: bool,
        scheduler: S,
        check: impl FnOnce(&nc_core::World<P>) -> bool,
    ) -> (RunReport, nc_core::ExecutionStats, bool) {
        let config = SimulationConfig::new(n).with_max_steps(2_000_000_000);
        let mut sim = Simulation::with_scheduler(protocol, config, scheduler);
        let report = if halt {
            sim.run_until_any_halted()
        } else {
            sim.run_until_stable()
        };
        let wanted = if halt {
            report.reason == StopReason::AllHalted
        } else {
            report.reason == StopReason::Stable
        };
        let ok = wanted && check(sim.world());
        (report, sim.stats(), ok)
    }
    let started = Instant::now();
    macro_rules! go_proto {
        ($sched:expr) => {
            match proto {
                Proto::Line => go(GlobalLine::new(), n, false, $sched, |w| {
                    w.output_shape().is_line(n)
                }),
                Proto::Square => {
                    let d = (n as f64).sqrt() as u32;
                    go(Square::new(), n, false, $sched, move |w| {
                        d as usize * d as usize != n || w.output_shape().is_full_square(d)
                    })
                }
                Proto::Counting => go(CountingOnALine::new(2), n, true, $sched, |w| w.any_halted()),
            }
        };
    }
    let (report, stats, completed) = match adversary {
        "round-robin" => go_proto!(RoundRobinScheduler::new()),
        "worst-case" => go_proto!(WorstCaseScheduler::new(ADVERSARY_PATIENCE)),
        "eclipse" => go_proto!(EclipseScheduler::against_leader(ADVERSARY_PATIENCE)),
        other => panic!("unknown adversary {other}"),
    };
    let seconds = started.elapsed().as_secs_f64();
    Row {
        protocol: proto.name().to_string(),
        n,
        mode: adversary.to_string(),
        shards: 1,
        seed: 0,
        seconds,
        steps: report.steps,
        effective_steps: report.effective_steps,
        skipped_steps: stats.skipped_steps,
        steps_per_sec: report.steps as f64 / seconds.max(1e-9),
        completed,
        snapshot_ms: 0.0,
        resume_ms: 0.0,
        profile: None,
    }
}

/// The flat-cost gate's sizes and bound: sharded@1 seconds per effective step on
/// GlobalLine at `FLAT_LARGE_N` must stay within `FLAT_MAX_RATIO`× the `FLAT_SMALL_N`
/// figure measured in the same process.
const FLAT_SMALL_N: usize = 1024;
const FLAT_LARGE_N: usize = 65_536;
const FLAT_MAX_RATIO: f64 = 2.5;

/// Best-of-three sharded@1 seconds per effective step (the minimum filters out
/// scheduling hiccups of a shared runner, which only ever add time).
fn secs_per_effective_step(proto: Proto, n: usize, seed: u64) -> f64 {
    (0..3)
        .map(|_| {
            let row = run_one(proto, n, seed, MODES[2], false);
            assert!(
                row.completed,
                "{} n={n} sharded1 did not complete",
                proto.name()
            );
            row.seconds / row.effective_steps.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Whether a row belongs to the sharded sampler (any shard count).
fn is_sharded(row: &Row) -> bool {
    row.mode.starts_with("sharded")
}

/// Asserts the cross-mode equivalences the smoke gate guards: the stable output shape
/// of GlobalLine/Square is unique, so every mode must reach it (checked inside
/// `run_one`); counting's final tape length is schedule-dependent, so only the halting
/// guarantee is compared. On top of that, sharded@1 must not be slower than indexed at
/// n = 256, and the sharded rows must agree on step counts across 1/2/4 shards.
fn smoke(protos: &[Proto], seed: u64) {
    let n = 256;
    let mut failures = Vec::new();
    for &proto in protos {
        let mut per_mode = Vec::new();
        for mode in MODES {
            if mode.mode == SamplingMode::Legacy && n > proto.legacy_cap() {
                continue;
            }
            // The smoke gates compare throughput, so they always run unprofiled.
            let row = run_one(proto, n, seed, mode, false);
            eprintln!(
                "smoke {:>18} {:>8}: {:>12.3}s {:>12} steps {:>14.0} steps/s completed={}",
                row.protocol, row.mode, row.seconds, row.steps, row.steps_per_sec, row.completed
            );
            if !row.completed {
                failures.push(format!("{} {} did not complete", proto.name(), row.mode));
            }
            per_mode.push(row);
        }
        let indexed = per_mode.iter().find(|r| r.mode == "indexed");
        let sharded1 = per_mode.iter().find(|r| r.mode == "sharded1");
        if let (Some(indexed), Some(sharded1)) = (indexed, sharded1) {
            if sharded1.steps_per_sec < indexed.steps_per_sec {
                failures.push(format!(
                    "{}: sharded@1 {:.0} steps/s slower than indexed {:.0} steps/s",
                    proto.name(),
                    sharded1.steps_per_sec,
                    indexed.steps_per_sec
                ));
            }
        }
        let sharded: Vec<&Row> = per_mode.iter().filter(|r| is_sharded(r)).collect();
        if sharded
            .iter()
            .any(|r| (r.steps, r.effective_steps) != (sharded[0].steps, sharded[0].effective_steps))
        {
            failures.push(format!(
                "{}: sharded step counts differ across shard counts (parallel equivalence broken)",
                proto.name()
            ));
        }
    }
    // Adversarial-but-fair schedulers: every protocol must still reach its guaranteed
    // outcome under each deterministic adversary, and two runs of the same adversary
    // must take the identical trajectory (they consume no randomness).
    let adv_n = 64;
    for &proto in protos {
        for adversary in ADVERSARIES {
            let row = run_adversary(proto, adv_n, adversary);
            let again = run_adversary(proto, adv_n, adversary);
            eprintln!(
                "smoke {:>18} {:>11}: {:>12.3}s {:>12} steps {:>14.0} steps/s completed={} (adversary, n={adv_n})",
                row.protocol, row.mode, row.seconds, row.steps, row.steps_per_sec, row.completed
            );
            if !row.completed {
                failures.push(format!(
                    "{} under the {} adversary did not complete",
                    proto.name(),
                    adversary
                ));
            }
            if (row.steps, row.effective_steps) != (again.steps, again.effective_steps) {
                failures.push(format!(
                    "{} under the {} adversary is not deterministic ({} vs {} steps)",
                    proto.name(),
                    adversary,
                    row.steps,
                    again.steps
                ));
            }
        }
    }
    if protos.contains(&Proto::Line) {
        let small = secs_per_effective_step(Proto::Line, FLAT_SMALL_N, seed);
        let large = secs_per_effective_step(Proto::Line, FLAT_LARGE_N, seed);
        let ratio = large / small;
        eprintln!(
            "smoke flat cost: global-line sharded1 {:.3} µs/effective step at n = \
             {FLAT_SMALL_N}, {:.3} at n = {FLAT_LARGE_N}: {ratio:.2}x (bound {FLAT_MAX_RATIO}x)",
            small * 1e6,
            large * 1e6
        );
        if ratio > FLAT_MAX_RATIO {
            failures.push(format!(
                "global-line: sharded@1 cost per effective step grows {ratio:.2}x from n = \
                 {FLAT_SMALL_N} to n = {FLAT_LARGE_N} (bound {FLAT_MAX_RATIO}x)"
            ));
        }
    }
    assert!(failures.is_empty(), "smoke failures: {failures:?}");
    eprintln!(
        "smoke ok: sharded@1 ≥ indexed at n = {n}, sharded step counts identical at \
         1/2/4 shards, all modes completed, adversarial schedulers deterministic and fair \
         at n = {adv_n}, per-step cost flat in n"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_scheduler.json".to_string());
    let protos: Vec<Proto> = flag_value("--protocols")
        .map(|list| {
            list.split(',')
                .map(|p| {
                    Proto::parse(p).unwrap_or_else(|| {
                        panic!(
                            "unknown protocol {p} (use line,square,counting or \
                             global-line,square,counting-on-a-line)"
                        )
                    })
                })
                .collect()
        })
        .unwrap_or_else(|| vec![Proto::Line, Proto::Square, Proto::Counting]);
    let sizes: Option<Vec<usize>> = flag_value("--sizes").map(|list| {
        list.split(',')
            .map(|s| s.parse().expect("size must be an integer"))
            .collect()
    });
    let legacy_max: usize = flag_value("--legacy-max")
        .map(|v| v.parse().expect("--legacy-max must be an integer"))
        .unwrap_or(usize::MAX);
    let profile = args.iter().any(|a| a == "--profile");
    let seed = 1u64;

    if args.iter().any(|a| a == "--smoke") {
        smoke(&protos, seed);
        return;
    }

    let mut rows: Vec<Row> = Vec::new();
    eprintln!("seed = {seed}, run-to-completion wall-clock (steps incl. sharded credits)");
    eprintln!(
        "{:>18}  {:>6}  {:>8}  {:>12}  {:>12}  {:>14}  {:>9}",
        "protocol", "n", "mode", "seconds", "steps", "steps/sec", "completed"
    );
    for &proto in &protos {
        let proto_sizes = sizes.clone().unwrap_or_else(|| {
            let mut default = vec![64, 128, 256, 512, 1024];
            default.extend_from_slice(proto.large_sizes());
            default
        });
        for &n in &proto_sizes {
            let sharded_only = n > proto.size_cap();
            if sharded_only {
                eprintln!(
                    "note: {} n={n} is above its size cap {}: sharded rows only",
                    proto.name(),
                    proto.size_cap()
                );
            }
            let mut indexed_secs = None;
            for mode in MODES {
                let capped = match mode.mode {
                    SamplingMode::Legacy => n > legacy_max.min(proto.legacy_cap()),
                    SamplingMode::Sharded => false,
                    SamplingMode::Adaptive => sharded_only,
                };
                if capped {
                    continue;
                }
                let row = run_one(proto, n, seed, mode, profile);
                eprintln!(
                    "{:>18}  {:>6}  {:>8}  {:>12.3}  {:>12}  {:>14.0}  {:>9}",
                    row.protocol,
                    row.n,
                    row.mode,
                    row.seconds,
                    row.steps,
                    row.steps_per_sec,
                    row.completed
                );
                if let Some(p) = &row.profile {
                    eprintln!(
                        "{:>18}  {n:>6}  {} phases: sample {:.1}ms, apply {:.1}ms, flush {:.1}ms",
                        proto.name(),
                        row.mode,
                        p.sample_ms,
                        p.apply_ms,
                        p.flush_ms
                    );
                }
                if mode.mode == SamplingMode::Adaptive {
                    indexed_secs = Some(row.seconds);
                }
                if let (Some(indexed_secs), "sharded1") = (indexed_secs, mode.label) {
                    eprintln!(
                        "{:>18}  {n:>6}  speedup (indexed/sharded1): {:.2}x",
                        proto.name(),
                        indexed_secs / row.seconds.max(1e-9)
                    );
                }
                rows.push(row);
            }
            // Adversary rows ride along at small n: deterministic worst cases that must
            // still reach the guaranteed outcome (fairness despite adversarial choice).
            if n <= ADVERSARY_CAP {
                for adversary in ADVERSARIES {
                    let row = run_adversary(proto, n, adversary);
                    eprintln!(
                        "{:>18}  {:>6}  {:>8}  {:>12.3}  {:>12}  {:>14.0}  {:>9}",
                        row.protocol,
                        row.n,
                        row.mode,
                        row.seconds,
                        row.steps,
                        row.steps_per_sec,
                        row.completed
                    );
                    assert!(
                        row.completed,
                        "{} n={n}: the {adversary} adversary must still complete",
                        proto.name()
                    );
                    rows.push(row);
                }
            }
            // Parallel-equivalence check rides along with every sweep: the sharded rows
            // of this cell must agree on step counts (shard count is a layout knob,
            // never a semantic one).
            let cell: Vec<&Row> = rows
                .iter()
                .filter(|r| r.protocol == proto.name() && r.n == n && is_sharded(r))
                .collect();
            assert!(
                cell.iter().all(|r| r.steps == cell[0].steps),
                "{} n={n}: sharded step counts differ across layouts",
                proto.name()
            );
        }
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    let json = format!(
        "{{\n  \"experiment\": \"scheduler-n-sweep\",\n  \"metric\": \"run-to-completion wall-clock, same seed per size; steps include sharded bulk credits; sharded rows at 1/2/4 shards report identical steps (parallel equivalence); snapshot_ms/resume_ms time one end-of-run checkpoint and its resume (round-trip verified against the run's statistics); legacy capped per protocol (line 512, square 128, counting 1024), indexed at 512 (square) and 1024 (line, counting); larger sizes (line 16384/65536/262144, square 16384, counting 16384/65536) run sharded rows only\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write bench artifact");
    eprintln!("wrote {out_path}");
}
