//! Node sharding: the partition of the population into contiguous id ranges that the
//! permissible-pair index's per-shard sub-indices are sliced by.
//!
//! # Why contiguous ranges
//!
//! The shard-count invariance of the sharded runtime — same seed ⇒ identical
//! execution for 1, 2 or 4 shards — rests on every sampler-visible ordering being a
//! function of the *configuration only*, never of the shard layout. Contiguous ranges
//! make that composition trivial: every per-shard structure is a rank/select set
//! ordered by node id (or, for intra pairs, by the pair's lower endpoint
//! `(node, port)`), so the concatenation of the per-shard structures **in shard order
//! is the global sorted order**, independent of how many shards the ids were cut into.
//! A hash-based assignment would interleave ids across shards and break exactly this
//! property.
//!
//! The shard count is an execution-layout knob, not a semantic one: it controls how
//! the index's sets are sliced, while the sampled trajectory stays byte-identical
//! across shard counts. Maintenance is sequential whatever the count; CI runs the
//! suite at 1 and 4 shards so the layout stays honest.

use crate::NodeId;
use std::ops::Range;
use std::sync::OnceLock;

/// Name of the environment variable providing the default shard count. CI runs the
/// whole test suite under `NC_SHARDS=1` and `NC_SHARDS=4` so every equivalence test
/// also exercises the sharded layout.
pub const SHARDS_ENV: &str = "NC_SHARDS";

/// Fallback shard count when `NC_SHARDS` is unset or unusable.
const SHARDS_FALLBACK: usize = 1;

/// Parses a raw `NC_SHARDS` value: a positive integer after trimming whitespace.
/// `None` for everything else — empty strings, garbage, zero, and values that
/// overflow `usize` (which fail to parse) all fall back to the default.
pub(crate) fn parse_shard_override(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&s| s >= 1)
}

/// Resolves an environment override through `parse`, warning exactly once on stderr
/// (naming the rejected value and the fallback) when the variable is set but
/// unusable. The callers cache the result in a process-wide `OnceLock`, which is
/// what bounds the warning to once per variable per process.
fn resolve_env(name: &str, fallback: usize, parse: fn(&str) -> Option<usize>) -> usize {
    let raw = match std::env::var(name) {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => return fallback,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!(
                "warning: {name}={raw:?} is not valid unicode; falling back to {name}={fallback}"
            );
            return fallback;
        }
    };
    match parse(&raw) {
        Some(value) => value,
        None => {
            eprintln!(
                "warning: rejecting {name}={raw:?} (not a positive integer); \
                 falling back to {name}={fallback}"
            );
            fallback
        }
    }
}

/// The default shard count: `NC_SHARDS` when set to a positive integer, 1 otherwise
/// (with a single stderr warning when the variable is set but malformed).
/// Read once per process — the layout of existing worlds must not change mid-run.
#[must_use]
pub fn default_shard_count() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| resolve_env(SHARDS_ENV, SHARDS_FALLBACK, parse_shard_override))
}

/// The partition of `0..n` into `shards` contiguous ranges of (up to) `⌈n/shards⌉`
/// node ids each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShardMap {
    n: u32,
    shards: u32,
    chunk: u32,
}

impl ShardMap {
    /// Creates the partition; the shard count is clamped to `1..=n`.
    pub(crate) fn new(n: usize, shards: usize) -> ShardMap {
        let n = n.max(1) as u32;
        let shards = shards.clamp(1, n as usize) as u32;
        ShardMap {
            n,
            shards,
            chunk: n.div_ceil(shards),
        }
    }

    /// Number of shards.
    pub(crate) fn count(self) -> usize {
        self.shards as usize
    }

    /// The shard owning `node`.
    pub(crate) fn shard_of(self, node: NodeId) -> usize {
        (node.index() as u32 / self.chunk) as usize
    }

    /// The id range owned by shard `s` (possibly empty for trailing shards when
    /// `n < shards · chunk`).
    pub(crate) fn range(self, s: usize) -> Range<usize> {
        let lo = (s as u32 * self.chunk).min(self.n) as usize;
        let hi = ((s as u32 + 1) * self.chunk).min(self.n) as usize;
        lo..hi
    }
}

/// Number of canonical trace lanes (see [`trace_lane`]).
pub const TRACE_LANES: usize = 4;

/// The canonical trace lane of a node: the shard it would belong to under a fixed
/// [`TRACE_LANES`]-way partition of `0..n`, regardless of the runtime shard count.
///
/// Step-indexed trace events are stamped with this lane rather than the owning
/// runtime shard. The runtime shard of a node is a function of `NC_SHARDS`, so
/// stamping it would make traces differ between shard counts even though the
/// executed trajectory is byte-identical; the canonical lane is a function of
/// `(node, n)` only, which is what lets the `trace_export --smoke` gate byte-compare
/// traces across `NC_SHARDS=1` and `4`.
#[must_use]
pub fn trace_lane(node: NodeId, n: usize) -> u32 {
    ShardMap::new(n, TRACE_LANES).shard_of(node) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_population() {
        for n in [1usize, 2, 5, 8, 10, 64, 65] {
            for shards in [1usize, 2, 3, 4, 7, 100] {
                let map = ShardMap::new(n, shards);
                let mut covered = 0;
                for s in 0..map.count() {
                    let range = map.range(s);
                    assert_eq!(range.start, covered, "n={n} shards={shards} s={s}");
                    covered = range.end;
                    for i in range {
                        assert_eq!(map.shard_of(NodeId::new(i as u32)), s);
                    }
                }
                assert_eq!(covered, n, "n={n} shards={shards}");
            }
        }
    }

    #[test]
    fn shard_count_is_clamped_to_the_population() {
        assert_eq!(ShardMap::new(3, 100).count(), 3);
        assert_eq!(ShardMap::new(3, 0).count(), 1);
    }

    #[test]
    fn shard_override_parsing_rejects_malformed_values() {
        // Usable values, with surrounding whitespace tolerated.
        assert_eq!(parse_shard_override("1"), Some(1));
        assert_eq!(parse_shard_override(" 4\n"), Some(4));
        // Empty and whitespace-only.
        assert_eq!(parse_shard_override(""), None);
        assert_eq!(parse_shard_override("   "), None);
        // Garbage, signs, and embedded junk.
        assert_eq!(parse_shard_override("four"), None);
        assert_eq!(parse_shard_override("-2"), None);
        // A leading `+` is accepted by the standard integer parser.
        assert_eq!(parse_shard_override("+2"), Some(2));
        assert_eq!(parse_shard_override("4 shards"), None);
        assert_eq!(parse_shard_override("0x4"), None);
        // Zero shards is meaningless.
        assert_eq!(parse_shard_override("0"), None);
        // Values overflowing `usize` fail to parse rather than wrap.
        assert_eq!(parse_shard_override("123456789012345678901234567890"), None);
    }

    #[test]
    fn resolve_env_falls_back_on_rejection() {
        // `resolve_env` itself is deterministic given the parse outcome; drive it
        // through a variable name that is never set to exercise the unset path.
        assert_eq!(
            resolve_env("NC_TEST_UNSET_VARIABLE", 7, parse_shard_override),
            7
        );
    }

    #[test]
    fn trace_lanes_are_independent_of_the_runtime_shard_count() {
        // The lane partition is fixed by (node, n) alone; feeding the same nodes
        // through worlds sharded 1/2/4 ways must never change it. (The lane is
        // computed from n directly, so this pins the *intent*: nothing about the
        // lane function may ever consult the runtime layout.)
        for n in [1usize, 3, 4, 16, 65] {
            for i in 0..n {
                let lane = trace_lane(NodeId::new(i as u32), n);
                assert!((lane as usize) < TRACE_LANES.min(n));
            }
        }
        // Lanes follow the contiguous-partition shape: ascending in node id.
        let lanes: Vec<u32> = (0..16).map(|i| trace_lane(NodeId::new(i), 16)).collect();
        let mut sorted = lanes.clone();
        sorted.sort_unstable();
        assert_eq!(lanes, sorted);
        assert_eq!(lanes[0], 0);
        assert_eq!(lanes[15], 3);
    }

    #[test]
    fn contiguity_means_shard_order_is_id_order() {
        let map = ShardMap::new(100, 4);
        let mut last = None;
        for s in 0..map.count() {
            for i in map.range(s) {
                assert!(Some(i) > last);
                last = Some(i);
            }
        }
    }
}
