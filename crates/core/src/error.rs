//! Error type of the core crate.

use crate::NodeId;
use std::error::Error;
use std::fmt;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A population of at least the stated size is required.
    PopulationTooSmall {
        /// Required minimum population.
        required: usize,
        /// Actual population.
        actual: usize,
    },
    /// A node index outside the population was referenced.
    UnknownNode(NodeId),
    /// A port was used that does not exist in the configured dimension.
    InvalidPort {
        /// The offending node.
        node: NodeId,
        /// The port name.
        port: &'static str,
    },
    /// The run hit its step budget before reaching the requested condition.
    StepBudgetExhausted {
        /// The number of steps executed.
        steps: u64,
    },
    /// A snapshot buffer ended before the decoder finished reading.
    SnapshotTruncated {
        /// Byte offset at which the decoder ran out of input.
        offset: usize,
    },
    /// A snapshot buffer does not start with the snapshot magic bytes.
    SnapshotBadMagic,
    /// A snapshot was written by an unsupported format version.
    SnapshotVersionUnsupported {
        /// The format version found in the header.
        version: u16,
    },
    /// A snapshot's trailing checksum does not match its contents.
    SnapshotChecksumMismatch {
        /// Checksum stored in the snapshot.
        stored: u64,
        /// Checksum computed over the snapshot contents.
        computed: u64,
    },
    /// A snapshot decoded structurally but failed a semantic validity check.
    SnapshotCorrupt {
        /// Which validity check failed.
        what: &'static str,
    },
    /// A snapshot was taken with a different protocol than the one resuming it.
    SnapshotProtocolMismatch {
        /// Protocol name stored in the snapshot.
        snapshot: String,
        /// Name of the protocol attempting to resume.
        protocol: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::PopulationTooSmall { required, actual } => write!(
                f,
                "population of {actual} nodes is too small, at least {required} required"
            ),
            CoreError::UnknownNode(n) => write!(f, "unknown node {n}"),
            CoreError::InvalidPort { node, port } => {
                write!(
                    f,
                    "port {port} does not exist on node {node} in this dimension"
                )
            }
            CoreError::StepBudgetExhausted { steps } => {
                write!(f, "step budget exhausted after {steps} steps")
            }
            CoreError::SnapshotTruncated { offset } => {
                write!(f, "snapshot truncated: input ended at byte {offset}")
            }
            CoreError::SnapshotBadMagic => write!(f, "not a snapshot: bad magic bytes"),
            CoreError::SnapshotVersionUnsupported { version } => {
                write!(f, "unsupported snapshot format version {version}")
            }
            CoreError::SnapshotChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CoreError::SnapshotCorrupt { what } => {
                write!(f, "corrupt snapshot: {what}")
            }
            CoreError::SnapshotProtocolMismatch { snapshot, protocol } => write!(
                f,
                "snapshot was taken with protocol {snapshot:?}, cannot resume with {protocol:?}"
            ),
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = CoreError::PopulationTooSmall {
            required: 4,
            actual: 1,
        };
        assert!(e.to_string().contains("too small"));
        assert!(CoreError::UnknownNode(NodeId::new(3))
            .to_string()
            .contains("n3"));
        assert!(CoreError::StepBudgetExhausted { steps: 10 }
            .to_string()
            .contains("10"));
    }

    #[test]
    fn display_covers_every_variant() {
        // One instance per variant; each message must be non-empty and name its
        // distinguishing payload so error reports are actionable.
        let cases: Vec<(CoreError, &str)> = vec![
            (
                CoreError::PopulationTooSmall {
                    required: 4,
                    actual: 1,
                },
                "at least 4",
            ),
            (CoreError::UnknownNode(NodeId::new(7)), "n7"),
            (
                CoreError::InvalidPort {
                    node: NodeId::new(2),
                    port: "Up",
                },
                "Up",
            ),
            (CoreError::StepBudgetExhausted { steps: 99 }, "99"),
            (CoreError::SnapshotTruncated { offset: 12 }, "byte 12"),
            (CoreError::SnapshotBadMagic, "magic"),
            (
                CoreError::SnapshotVersionUnsupported { version: 9 },
                "version 9",
            ),
            (
                CoreError::SnapshotChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (
                CoreError::SnapshotCorrupt {
                    what: "node id out of range",
                },
                "node id out of range",
            ),
            (
                CoreError::SnapshotProtocolMismatch {
                    snapshot: "square".into(),
                    protocol: "global-line".into(),
                },
                "global-line",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "{err:?} rendered as {msg:?}, expected it to contain {needle:?}"
            );
        }
    }
}
