//! Job specifications: what a tenant submits, and how submissions are parsed.
//!
//! A job is one simulation run — protocol, population size, seed, sampling mode,
//! shard layout and a lifetime step budget — owned by a named tenant.
//! Submissions arrive as `application/x-www-form-urlencoded` bodies
//! (`protocol=square&n=16&seed=7`); every malformed field is a typed [`SpecError`]
//! that the HTTP tier answers with `422 Unprocessable Entity`, mirroring the
//! bounded, panic-free parsing discipline of the vendored HTTP server underneath.

use std::fmt;

use nc_core::scheduler::SamplingMode;

/// Identifier of a submitted job (dense, assigned in submission order).
pub type JobId = u64;

/// The protocols the service tier can run. Each maps onto one of the repository's
/// snapshot-capable reference protocols.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// `GlobalLine` — the paper's spanning-line constructor, run to stability.
    Line,
    /// `Square` — the ⌊√n⌋ square constructor, run to stability.
    Square,
    /// `CountingOnALine` — the terminating counting protocol, run until the leader
    /// halts.
    Counting,
}

impl ProtocolKind {
    /// The snapshot/registry name of the protocol (matches `Protocol::name()`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Line => "global-line",
            ProtocolKind::Square => "square",
            ProtocolKind::Counting => "counting-on-a-line",
        }
    }

    fn parse(token: &str) -> Result<ProtocolKind, SpecError> {
        match token {
            "line" | "global-line" => Ok(ProtocolKind::Line),
            "square" => Ok(ProtocolKind::Square),
            "counting" | "counting-on-a-line" => Ok(ProtocolKind::Counting),
            _ => Err(SpecError::UnknownProtocol),
        }
    }
}

/// What a tenant submits: one bounded simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Which protocol to run.
    pub protocol: ProtocolKind,
    /// Population size.
    pub n: usize,
    /// Scheduler seed.
    pub seed: u64,
    /// Sampling mode of the uniform scheduler.
    pub mode: SamplingMode,
    /// Shard count of the world layout.
    pub shards: usize,
    /// Lifetime step budget: the job fails with `budget-exhausted` once its
    /// cumulative step count (which survives crash/resume) reaches this.
    pub step_budget: u64,
    /// Owning tenant (weighted round-robin key in the queue).
    pub tenant: String,
    /// Scheduling weight of the tenant (≥ 1; the queue's weighted round-robin
    /// draw uses the latest submitted weight per tenant).
    pub weight: u64,
    /// Crash injection: the worker deliberately panics after running this many
    /// slices of the job — once, on the first attempt only. The recovery path then
    /// resumes from the last checkpoint; the crash-recovery suite and the `--smoke`
    /// gate pin that the recovered report is byte-identical to an uncrashed run's.
    pub crash_after_slices: Option<u64>,
}

impl JobSpec {
    /// A baseline spec: adaptive sampling, one shard, a large budget, the default
    /// tenant.
    #[must_use]
    pub fn new(protocol: ProtocolKind, n: usize) -> JobSpec {
        JobSpec {
            protocol,
            n,
            seed: 0xC0FFEE,
            mode: SamplingMode::Adaptive,
            shards: 1,
            step_budget: 2_000_000_000,
            tenant: "default".to_string(),
            weight: 1,
            crash_after_slices: None,
        }
    }

    /// The sampling-mode label this spec shows in sweep rows, following the
    /// `scheduler_sweep` labelling (`legacy`, `indexed`, `sharded4`, …).
    #[must_use]
    pub fn mode_label(&self) -> String {
        match self.mode {
            SamplingMode::Adaptive => "indexed".to_string(),
            SamplingMode::Legacy => "legacy".to_string(),
            SamplingMode::Sharded => format!("sharded{}", self.shards),
        }
    }

    /// Parses an `application/x-www-form-urlencoded` submission body. Unknown keys
    /// are rejected (a typo would otherwise silently fall back to a default and run
    /// the wrong experiment); missing keys other than `protocol` and `n` take
    /// defaults.
    ///
    /// # Errors
    /// A typed [`SpecError`] naming the offending field.
    pub fn parse(body: &str) -> Result<JobSpec, SpecError> {
        let mut protocol = None;
        let mut n = None;
        let mut spec = JobSpec::new(ProtocolKind::Line, 0);
        for pair in body.split('&').filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').ok_or(SpecError::MalformedPair)?;
            match key {
                "protocol" => protocol = Some(ProtocolKind::parse(value)?),
                "n" => n = Some(parse_number::<u64>("n", value)?),
                "seed" => spec.seed = parse_number("seed", value)?,
                "mode" => {
                    spec.mode = match value {
                        "adaptive" | "indexed" => SamplingMode::Adaptive,
                        "legacy" => SamplingMode::Legacy,
                        "sharded" => SamplingMode::Sharded,
                        _ => return Err(SpecError::UnknownMode),
                    }
                }
                "shards" => spec.shards = parse_number("shards", value)?,
                "step_budget" => spec.step_budget = parse_number("step_budget", value)?,
                "tenant" => {
                    if value.is_empty() || value.len() > 64 {
                        return Err(SpecError::BadTenant);
                    }
                    spec.tenant = value.to_string();
                }
                "weight" => spec.weight = parse_number("weight", value)?,
                "crash_after_slices" => {
                    spec.crash_after_slices = Some(parse_number("crash_after_slices", value)?);
                }
                _ => return Err(SpecError::UnknownKey),
            }
        }
        spec.protocol = protocol.ok_or(SpecError::MissingProtocol)?;
        spec.n = usize::try_from(n.ok_or(SpecError::MissingN)?)
            .map_err(|_| SpecError::BadNumber { key: "n" })?;
        if spec.n == 0 {
            return Err(SpecError::BadNumber { key: "n" });
        }
        if spec.shards == 0 {
            return Err(SpecError::BadNumber { key: "shards" });
        }
        if spec.weight == 0 {
            return Err(SpecError::BadNumber { key: "weight" });
        }
        if spec.step_budget == 0 {
            return Err(SpecError::BadNumber { key: "step_budget" });
        }
        Ok(spec)
    }
}

fn parse_number<T>(key: &'static str, value: &str) -> Result<T, SpecError>
where
    T: std::str::FromStr,
{
    value.parse().map_err(|_| SpecError::BadNumber { key })
}

/// Typed rejection of a malformed job submission (answered `422`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// A body segment is not `key=value`.
    MalformedPair,
    /// A key this service does not define.
    UnknownKey,
    /// `protocol` names no known protocol.
    UnknownProtocol,
    /// `mode` names no known sampling mode.
    UnknownMode,
    /// A numeric field is unparsable or out of range.
    BadNumber {
        /// The offending key.
        key: &'static str,
    },
    /// The tenant name is empty or over 64 bytes.
    BadTenant,
    /// No `protocol` field.
    MissingProtocol,
    /// No `n` field.
    MissingN,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::MalformedPair => write!(f, "body segment is not key=value"),
            SpecError::UnknownKey => write!(f, "unknown submission key"),
            SpecError::UnknownProtocol => {
                write!(f, "unknown protocol (expected line, square or counting)")
            }
            SpecError::UnknownMode => {
                write!(f, "unknown mode (expected adaptive, legacy or sharded)")
            }
            SpecError::BadNumber { key } => write!(f, "field '{key}' is not a valid number"),
            SpecError::BadTenant => write!(f, "tenant must be 1..=64 bytes"),
            SpecError::MissingProtocol => write!(f, "missing required field 'protocol'"),
            SpecError::MissingN => write!(f, "missing required field 'n'"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Lifecycle state of a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// In a tenant queue, waiting for a worker slot (or for its retry backoff).
    Queued,
    /// Claimed by a worker, running one slice.
    Running,
    /// Reached its protocol's completion condition; a report is available.
    Done,
    /// Failed permanently (budget exhausted, retries exhausted, or a typed error).
    Failed,
    /// Cancelled by the tenant before completion.
    Cancelled,
}

impl JobState {
    /// The state's wire label.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_submission() {
        let spec = JobSpec::parse(
            "protocol=square&n=16&seed=7&mode=sharded&shards=4&step_budget=500000&tenant=alice&weight=3",
        )
        .expect("valid spec");
        assert_eq!(spec.protocol, ProtocolKind::Square);
        assert_eq!(spec.n, 16);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.mode, SamplingMode::Sharded);
        assert_eq!(spec.shards, 4);
        assert_eq!(spec.step_budget, 500_000);
        assert_eq!(spec.tenant, "alice");
        assert_eq!(spec.weight, 3);
        assert_eq!(spec.mode_label(), "sharded4");
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let spec = JobSpec::parse("protocol=line&n=8").expect("minimal spec");
        assert_eq!(spec.protocol, ProtocolKind::Line);
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.mode, SamplingMode::Adaptive);
        assert_eq!(spec.mode_label(), "indexed");
        assert_eq!(spec.crash_after_slices, None);
    }

    #[test]
    fn rejections_are_typed() {
        let cases = [
            ("", SpecError::MissingProtocol),
            ("protocol=line", SpecError::MissingN),
            ("protocol=teleport&n=4", SpecError::UnknownProtocol),
            ("protocol=line&n=4&mode=psychic", SpecError::UnknownMode),
            // The retired batched and speculative modes, and their window knob.
            ("protocol=line&n=4&mode=batched", SpecError::UnknownMode),
            ("protocol=line&n=4&mode=speculative", SpecError::UnknownMode),
            ("protocol=line&n=4&speculation=8", SpecError::UnknownKey),
            ("protocol=line&n=zero", SpecError::BadNumber { key: "n" }),
            ("protocol=line&n=0", SpecError::BadNumber { key: "n" }),
            (
                "protocol=line&n=4&shards=0",
                SpecError::BadNumber { key: "shards" },
            ),
            (
                "protocol=line&n=4&weight=0",
                SpecError::BadNumber { key: "weight" },
            ),
            ("protocol=line&n=4&bogus=1", SpecError::UnknownKey),
            ("protocol=line&n=4&tenant=", SpecError::BadTenant),
            ("protocol&n=4", SpecError::MalformedPair),
        ];
        for (body, expected) in cases {
            assert_eq!(JobSpec::parse(body).unwrap_err(), expected, "body: {body}");
        }
    }
}
