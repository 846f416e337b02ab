//! Step-indexed structured tracing.
//!
//! Events are stamped with `(lifetime_step, lane)` — the scheduler's step
//! ordinal and a canonical lane index — never wall clock. Under the paper's
//! scheduler every run is a deterministic sequence of selections, so the trace
//! of a pinned run is **byte-reproducible**, and because the lane is a fixed
//! partition of node ids (not the runtime shard layout), the trace is identical
//! across `NC_SHARDS` settings. The `trace_export --smoke` gate pins exactly
//! that.
//!
//! The ring is bounded: when full, the oldest events are dropped and counted.
//! Dropping is deterministic too — keeping the last `cap` events of a
//! deterministic stream is a pure function of the stream.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What happened. Payloads are small integers so events stay `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The scheduler selected an ordered pair; `effective` is whether the
    /// interaction changed the configuration.
    Selection {
        /// Whether the applied interaction was effective.
        effective: bool,
    },
    /// Two connected components merged.
    Merge,
    /// A component split.
    Split,
    /// The pair index allocated a state class.
    ClassAlloc {
        /// The class id handed out.
        class: u32,
    },
    /// The pair index retired a state class.
    ClassRetire {
        /// The class id retired.
        class: u32,
    },
    /// The pair index flushed its pending queue.
    IndexFlush {
        /// Nodes whose adjacency was re-derived.
        touched: u32,
    },
    /// A snapshot checkpoint was taken.
    Checkpoint {
        /// Encoded snapshot size in bytes.
        bytes: u64,
    },
    /// A service slice boundary: the job parked/yielded after this step.
    SliceBoundary {
        /// The slice ordinal within the job.
        slice: u64,
    },
}

impl TraceEventKind {
    /// A stable lowercase name (Chrome trace `name` field).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Selection { .. } => "selection",
            TraceEventKind::Merge => "merge",
            TraceEventKind::Split => "split",
            TraceEventKind::ClassAlloc { .. } => "class_alloc",
            TraceEventKind::ClassRetire { .. } => "class_retire",
            TraceEventKind::IndexFlush { .. } => "index_flush",
            TraceEventKind::Checkpoint { .. } => "checkpoint",
            TraceEventKind::SliceBoundary { .. } => "slice_boundary",
        }
    }

    /// The payload as a JSON object body (no braces), possibly empty.
    fn args_json(&self) -> String {
        match self {
            TraceEventKind::Selection { effective } => format!("\"effective\":{effective}"),
            TraceEventKind::Merge | TraceEventKind::Split => String::new(),
            TraceEventKind::ClassAlloc { class } | TraceEventKind::ClassRetire { class } => {
                format!("\"class\":{class}")
            }
            TraceEventKind::IndexFlush { touched } => format!("\"touched\":{touched}"),
            TraceEventKind::Checkpoint { bytes } => format!("\"bytes\":{bytes}"),
            TraceEventKind::SliceBoundary { slice } => format!("\"slice\":{slice}"),
        }
    }
}

/// One trace event: a kind stamped with the lifetime step and a canonical lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Lifetime scheduler step the event belongs to (1-based; 0 for events
    /// before the first step).
    pub step: u64,
    /// Canonical lane: a fixed partition of node ids independent of the
    /// runtime shard layout, so traces compare across shard counts.
    pub lane: u32,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A bounded ring of trace events with a drop counter.
#[derive(Debug)]
pub(crate) struct TraceRing {
    cap: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceRing {
    pub(crate) fn new(cap: usize) -> TraceRing {
        TraceRing {
            cap: cap.max(1),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(&self, event: TraceEvent) {
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if events.len() == self.cap {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    pub(crate) fn snapshot(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Encodes events as a Chrome trace-event JSON document (`about://tracing` /
/// Perfetto's legacy importer). `ts` carries the **step ordinal**, not
/// microseconds; `tid` carries the lane. The output is a pure function of the
/// event list, so byte-comparing two exports is a valid trace-equality check.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent], process_name: &str) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
        process_name.replace('\\', "\\\\").replace('"', "\\\"")
    ));
    for event in events {
        let args = event.kind.args_json();
        let args = if args.is_empty() {
            String::new()
        } else {
            format!(",\"args\":{{{args}}}")
        };
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{}{}}}",
            event.kind.name(),
            event.step,
            event.lane,
            args
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_cap_events_and_counts_drops() {
        let ring = TraceRing::new(3);
        for step in 1..=5 {
            ring.push(TraceEvent {
                step,
                lane: 0,
                kind: TraceEventKind::Merge,
            });
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].step, 3);
        assert_eq!(events[2].step, 5);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn chrome_export_is_deterministic_json() {
        let events = vec![
            TraceEvent {
                step: 1,
                lane: 2,
                kind: TraceEventKind::Selection { effective: true },
            },
            TraceEvent {
                step: 1,
                lane: 2,
                kind: TraceEventKind::Merge,
            },
            TraceEvent {
                step: 7,
                lane: 0,
                kind: TraceEventKind::IndexFlush { touched: 4 },
            },
        ];
        let a = chrome_trace_json(&events, "run");
        let b = chrome_trace_json(&events, "run");
        assert_eq!(a, b);
        assert!(a.contains("\"name\":\"selection\""), "{a}");
        assert!(a.contains("\"ts\":7"), "{a}");
        assert!(a.contains("\"effective\":true"), "{a}");
        assert!(a.ends_with("]}\n"), "{a}");
    }
}
