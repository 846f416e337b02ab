//! The per-epoch delta log: undoable records of every world mutation, powering
//! [`crate::World::checkpoint`] / [`crate::World::rollback`].
//!
//! # Design
//!
//! While at least one checkpoint is open, every mutation of the world's *logical*
//! state (a state write, a bond link write, a component-membership or embedding
//! change, a component-slot allocation) appends one undoable record capturing the
//! overwritten value. A rollback replays the records in strict reverse order, which
//! restores every touched slot to its checkpointed value — by induction over the
//! record sequence: the last record for a slot was appended *before* the first
//! overwrite of that slot within the epoch, so undoing it last reinstates the
//! original value.
//!
//! The `O(1)` component bookkeeping scalars (`bond_count`, `Σ|component|²`, live
//! component count, cross-shard event counter) take a **snapshot** in the epoch frame
//! instead of per-mutation records, because they are maintained as running scalars.
//! The pair index's queue of nodes to re-derive needs neither: every public mutator
//! flushes it before returning, so it is empty at every checkpoint and rollback. The
//! permissible-pair index itself keeps its own operation log (see `crate::index`),
//! whose position is recorded here so a rollback can unwind the index to the exact
//! sub-index layouts and aggregate counts of the checkpoint.
//!
//! Two things are intentionally **not** rolled back: monotone work counters
//! ([`crate::IndexStats`] — they report lifetime work, and the rolled-back queries
//! genuinely happened), and the configuration *version*, which is bumped once per
//! rollback instead of rewound — versions must stay monotone so that version-keyed
//! caches (sampler batches, enumeration caches) re-derive from the restored state
//! rather than replaying a stale structure whose version collides.
//!
//! Checkpoints nest: frames form a stack, and rolling back to an outer epoch
//! discards the inner ones. This is what lets the model checker and the delta-log
//! exactness suite wrap a checkpoint around every probed apply while an outer epoch
//! stays open.

use crate::world::PairMode;
use crate::{Component, CoreError, NodeId, Placement};
use nc_geometry::Dir;

/// An opaque handle to an open checkpoint, returned by [`crate::World::checkpoint`]
/// and consumed by [`crate::World::rollback`] / [`crate::World::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    pub(crate) id: u64,
}

/// One undoable world mutation: the overwritten value of a single slot.
pub(crate) enum WorldRecord<S> {
    /// `states[node]` was overwritten; `old` is the previous state.
    State { node: usize, old: S },
    /// `halted[node]` was overwritten.
    Halted { node: usize, old: bool },
    /// `links[node][port]` was overwritten.
    Link {
        node: usize,
        port: usize,
        old: Option<(NodeId, Dir)>,
    },
    /// `comp_of[node]` was overwritten.
    CompOf { node: usize, old: usize },
    /// `placements[node]` was overwritten.
    PlacementOf { node: usize, old: Placement },
    /// `components[idx]` was overwritten wholesale (merge absorption/growth, split
    /// shrinkage, new-slot assignment); `old` is a full clone of the previous value.
    CompSlot { idx: usize, old: Option<Component> },
    /// `components` grew by one pushed slot; undone by popping it.
    CompPush,
}

/// The per-checkpoint frame: log positions plus the snapshot-restored state.
pub(crate) struct EpochFrame {
    pub(crate) id: u64,
    /// Length of the world record log at checkpoint time.
    pub(crate) world_pos: usize,
    /// Length of the pair index's operation log at checkpoint time.
    pub(crate) index_pos: usize,
    /// Set when an inner rollback had to rebuild the pair index from scratch (its
    /// operation log no longer reaches back to this frame): a rollback to this frame
    /// must rebuild too instead of unwinding ops.
    pub(crate) index_rebuilt: bool,
    // --- scalar snapshots ---------------------------------------------------------
    pub(crate) bond_count: usize,
    pub(crate) sum_sq_sizes: u64,
    pub(crate) live_components: usize,
    pub(crate) cross_shard_events: u64,
    /// Lifecycle of the pair index at checkpoint time.
    pub(crate) pairs_mode: PairMode,
}

/// The world's delta log: the flat record stream plus the stack of open frames.
pub(crate) struct DeltaLog<S> {
    records: Vec<WorldRecord<S>>,
    frames: Vec<EpochFrame>,
    next_id: u64,
}

impl<S> DeltaLog<S> {
    pub(crate) fn new() -> DeltaLog<S> {
        DeltaLog {
            records: Vec::new(),
            frames: Vec::new(),
            next_id: 0,
        }
    }

    /// Whether at least one checkpoint is open (mutations must append records).
    #[inline]
    pub(crate) fn recording(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Appends a record if recording (no-op otherwise — the hot-path guard).
    #[inline]
    pub(crate) fn record(&mut self, make: impl FnOnce() -> WorldRecord<S>) {
        if self.recording() {
            self.records.push(make());
        }
    }

    /// Opens a frame (records must already have been positioned by the caller) and
    /// returns its epoch handle.
    pub(crate) fn open(&mut self, mut frame: EpochFrame) -> Epoch {
        let id = self.next_id;
        self.next_id += 1;
        frame.id = id;
        if self.frames.is_empty() {
            debug_assert!(frame.world_pos == 0);
        }
        self.frames.push(frame);
        Epoch { id }
    }

    /// Current length of the record stream.
    pub(crate) fn world_pos(&self) -> usize {
        self.records.len()
    }

    /// Clears the record stream (only valid while no frame is open).
    pub(crate) fn reset_records(&mut self) {
        debug_assert!(self.frames.is_empty());
        self.records.clear();
    }

    /// Pops frames strictly deeper than `epoch`, then pops and returns the frame of
    /// `epoch` itself. Fails with [`CoreError::EpochNotOpen`] when the epoch is not
    /// open (already rolled back, released, or foreign) — a serving process must be
    /// able to report a misused delta log instead of aborting. A stale inner epoch
    /// (below a live outer one) is caught *before* any frame is popped, so a failed
    /// call leaves the stack untouched.
    pub(crate) fn take_frame(&mut self, epoch: Epoch) -> Result<EpochFrame, CoreError> {
        if !self.frames.iter().any(|frame| frame.id == epoch.id) {
            return Err(CoreError::EpochNotOpen);
        }
        while let Some(frame) = self.frames.pop() {
            if frame.id == epoch.id {
                return Ok(frame);
            }
            debug_assert!(
                frame.id > epoch.id,
                "epoch stack must be consumed innermost-first"
            );
        }
        unreachable!("frame with the requested id was present above");
    }

    /// Splits off (and returns, newest last) the records appended after `pos`.
    pub(crate) fn split_records(&mut self, pos: usize) -> Vec<WorldRecord<S>> {
        self.records.split_off(pos)
    }

    /// Marks every still-open frame as requiring an index rebuild on rollback (used
    /// after an inner rollback rebuilt the pair index, invalidating op positions).
    pub(crate) fn poison_index_positions(&mut self) {
        for frame in &mut self.frames {
            frame.index_rebuilt = true;
        }
    }
}
