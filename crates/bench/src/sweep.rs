//! The shared row format of scheduler-sweep artifacts (`BENCH_scheduler.json`).
//!
//! One [`SweepRow`] describes one benchmarked execution: protocol, population size,
//! sampling-mode label, shard count, seed, wall-clock, step accounting and the
//! end-of-run snapshot/resume timings. The `scheduler_sweep` binary
//! emits these rows as the perf baseline, and the `nc-service` results/stats
//! component serves the same shape over HTTP for completed jobs — one schema, two
//! producers, so downstream tooling reads both with the same parser.
//!
//! Serialization is a hand-rolled JSON emitter (the build environment is offline, so
//! no serde), field order fixed and stable across producers.

use nc_core::{Phase, PhaseProfile};

/// Optional per-phase profiling columns of one row, attached when the producer
/// ran with telemetry enabled (`scheduler_sweep --profile`). Absent by default,
/// so plain artifacts keep the original schema byte for byte.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepProfile {
    /// Milliseconds inside scheduler sampling (`Phase::Sample`).
    pub sample_ms: f64,
    /// Milliseconds applying interactions (`Phase::Apply`).
    pub apply_ms: f64,
    /// Milliseconds flushing the pair index (`Phase::Flush`).
    pub flush_ms: f64,
}

impl SweepProfile {
    /// Builds the columns from a run's phase profile.
    #[must_use]
    pub fn from_run(phases: &PhaseProfile) -> SweepProfile {
        SweepProfile {
            sample_ms: phases.get(Phase::Sample).millis(),
            apply_ms: phases.get(Phase::Apply).millis(),
            flush_ms: phases.get(Phase::Flush).millis(),
        }
    }
}

/// One benchmarked or served execution row of a `BENCH_scheduler.json`-style
/// document.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Protocol name (`global-line`, `square`, `counting-on-a-line`, …).
    pub protocol: String,
    /// Population size.
    pub n: usize,
    /// Sampling-mode label (`legacy`, `indexed`, `sharded4`, an adversary name, …).
    pub mode: String,
    /// Shard count of the run's world layout.
    pub shards: usize,
    /// Scheduler seed.
    pub seed: u64,
    /// Wall-clock seconds of the run.
    pub seconds: f64,
    /// Scheduler steps (including sharded bulk credits).
    pub steps: u64,
    /// Effective steps.
    pub effective_steps: u64,
    /// Bulk-credited ineffective selections.
    pub skipped_steps: u64,
    /// Steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Whether the run reached its protocol's guaranteed outcome.
    pub completed: bool,
    /// Milliseconds to take one end-of-run checkpoint.
    pub snapshot_ms: f64,
    /// Milliseconds to resume that checkpoint.
    pub resume_ms: f64,
    /// Per-phase profiling columns; `None` unless the producer profiled.
    pub profile: Option<SweepProfile>,
}

impl SweepRow {
    /// The row as one JSON object (fixed field order, four-space indent to sit
    /// inside the sweep document's `rows` array).
    #[must_use]
    pub fn to_json(&self) -> String {
        let profile = self.profile.as_ref().map_or_else(String::new, |p| {
            format!(
                ", \"sample_ms\": {:.4}, \"apply_ms\": {:.4}, \"flush_ms\": {:.4}",
                p.sample_ms, p.apply_ms, p.flush_ms
            )
        });
        format!(
            "    {{\"protocol\": \"{}\", \"n\": {}, \"mode\": \"{}\", \"shards\": {}, \"seed\": {}, \"seconds\": {:.6}, \"steps\": {}, \"effective_steps\": {}, \"skipped_steps\": {}, \"steps_per_sec\": {:.1}, \"completed\": {}, \"snapshot_ms\": {:.4}, \"resume_ms\": {:.4}{}}}",
            self.protocol,
            self.n,
            self.mode,
            self.shards,
            self.seed,
            self.seconds,
            self.steps,
            self.effective_steps,
            self.skipped_steps,
            self.steps_per_sec,
            self.completed,
            self.snapshot_ms,
            self.resume_ms,
            profile
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepRow {
        SweepRow {
            protocol: "square".to_string(),
            n: 256,
            mode: "sharded4".to_string(),
            shards: 4,
            seed: 1,
            seconds: 0.25,
            steps: 1000,
            effective_steps: 400,
            skipped_steps: 600,
            steps_per_sec: 4000.0,
            completed: true,
            snapshot_ms: 0.5,
            resume_ms: 0.75,
            profile: None,
        }
    }

    #[test]
    fn json_contains_every_field_in_order() {
        let json = sample().to_json();
        let keys = [
            "protocol",
            "n",
            "mode",
            "shards",
            "seed",
            "seconds",
            "steps",
            "effective_steps",
            "skipped_steps",
            "steps_per_sec",
            "completed",
            "snapshot_ms",
            "resume_ms",
        ];
        let mut last = 0;
        for key in keys {
            let needle = format!("\"{key}\":");
            let at = json[last..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{key} missing or out of order in {json}"));
            last += at;
        }
        assert!(json.contains("\"protocol\": \"square\""));
        assert!(json.contains("\"completed\": true"));
    }

    #[test]
    fn profile_columns_appear_only_when_attached() {
        let plain = sample().to_json();
        assert!(!plain.contains("sample_ms"));
        let mut row = sample();
        row.profile = Some(SweepProfile {
            sample_ms: 1.5,
            apply_ms: 2.0,
            flush_ms: 0.5,
        });
        let json = row.to_json();
        for key in ["sample_ms", "apply_ms", "flush_ms"] {
            assert!(json.contains(&format!("\"{key}\":")), "{key} missing");
        }
        assert!(json.contains("\"flush_ms\": 0.5000"));
        assert!(json.ends_with("}"));
    }
}
