//! The incremental *permissible-pair index*: exact permissible/effective pair
//! counts of the configuration, maintained in `O(changed)` per world delta, plus
//! uniform draws from either set. It serves the geometric-jump sampler and is
//! the one oracle behind [`crate::World::is_stable`] and
//! [`crate::World::find_effective_interaction`]: a configuration is stable iff its
//! effective count is zero (with the multi×multi class enumerated on demand, see
//! below).

use crate::component::{Component, DeterministicState};
use crate::rank_set::{RankSet, EMPTY};
use crate::{NodeId, Placement, Protocol};
use nc_geometry::{Dim, Dir};
use nc_obs::{Telemetry, TraceEventKind};
use std::collections::HashMap;

/// Work counters of the world's stability oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Exhaustive `O(n² · ports²)` fallback scans run by [`crate::World::is_stable`] or
    /// [`crate::World::find_effective_interaction`]: only when the pair index cannot
    /// answer (class-table overflow, or a multi×multi cross universe over budget).
    /// Zero whenever the pair index answered every query.
    pub node_scans: u64,
}

// =======================================================================================
// The incremental permissible-pair index
// =======================================================================================
//
// The jump sampler needs the exact *counts* of permissible and effective pairs of a
// frozen configuration — and the ability to draw uniformly from either set — without
// re-enumerating `O(n²·ports²)` candidates per configuration version; stability is the
// special case "effective count is zero". The [`PairIndex`] below maintains those
// counts in `O(changed)` per world mutation (state writes, bond flips, merges,
// splits).
//
// # Decomposition
//
// The permissible set splits into classes whose sizes are maintainable exactly:
//
// 1. **Intra-component pairs** (bonded, or facing-adjacent in the same component):
//    purely local — whether `(x, pa)` participates depends only on `x`'s links and the
//    occupancy of the single cell its port faces. Stored by lower endpoint (the pair
//    key order).
// 2. **Multi-component node × free singleton**: a port of a node in a ≥2-node component
//    whose facing cell is unoccupied accepts *any* free singleton through *any* of its
//    ports (singletons are arbitrarily rotatable and have no other cells to collide),
//    so these pairs are counted as `free_ports · ports · singletons` without being
//    materialised. Effectiveness only depends on the two states and the two ports, so
//    grouping singletons (and free ports) by *state class* turns the effective count
//    into a small sum over class pairs.
// 3. **Singleton × singleton**: always permissible (any ports, a rotation always
//    exists, nothing can collide), counted as `ports² · C(s, 2)`; effectiveness again
//    per class pair.
// 4. **Multi × multi cross-component pairs**: the only class whose permissibility
//    depends on non-local geometry (collision between two rigid shapes). These are
//    *not* maintained incrementally — [`crate::World::enumerate_cross_multi`]
//    enumerates them per frozen version under a budget, and the caller falls back to
//    rejection sampling when the budget is exceeded. In the growth workloads this
//    index optimises (one growing component absorbing free nodes) this class is empty.
//
// Exactness of the merge case is worth spelling out: when a component grows, pairs
// anchored at its *unmoved* members can silently lose permissibility (the new cells
// block previously valid placements), which is why class 4 cannot ride the delta
// stream. Classes 1–3 are immune: intra adjacency is rigid under merges, and the
// singleton classes only depend on the facing cell of one port — the world marks the
// neighbours of every newly inserted cell as touched, which is exactly the set whose
// free-port flags can flip.
//
// # Layout and the class-count aggregate
//
// Every bucket is a rank/select set ([`RankSet`]: a bitset plus a Fenwick tree over
// per-word popcounts) over a dense universe: per state class, the free singletons and
// (per port) the free multi-component ports, keyed by node id; and the intra pairs,
// keyed by their lower endpoint `node·PORT_CAP + port`, which orders intra pairs
// exactly like their canonical pair keys because a node-port belongs to at most one
// intra pair. Registration changes and `select(k)` are `O(log n)` and iteration is
// ascending, so the per-step cost carries no `O(bucket)` memmove of a sorted `Vec`.
// Beside the buckets an **aggregate** keeps, per state class, the bucket sizes
// (`g[class][port]`, `s[class]`) and a running total of the effective pair count,
// updated with an exact `O(classes·ports)` delta on every single registration change
// — the rates the jump sampler composes its geometric jumps from. Class-pair
// effectiveness lives in dense tables, so both the delta maintenance and the uniform
// sampling walk touch plain arrays, never a hash map.
//
// The tables are filled lazily, one class pair at a time ([`PairIndex::ensure_pair`]),
// because only free-port/singleton × singleton cells are ever read: the rates, the
// sampling walks and the effective-set expansion skip every cell with an empty bucket
// on either side. A per-class `filled` bitmask records which pairs hold valid entries,
// and the registrations keep one invariant — every pair of a class registered as a
// singleton or free port with a class holding singletons is filled:
//
// * `register_singleton(c)` fills `c` against every class with a registration, itself
//   included;
// * `register_free_port(c)` fills `c` against every class holding singletons;
// * a slot's row and column bits are cleared whenever its tenant changes (allocation
//   in `class_for`), and a rebuild starts with every bit clear.
//
// Protocols whose leader takes a fresh state on almost every effective step (the
// counters of Counting-on-a-Line) thus pay for the handful of singleton classes it
// meets, not for every live class.
//
// # Canonical order
//
// Every ordering the samplers can observe is canonical in the *configuration*:
//
// * the rank/select sets are ordered by node id (intra pairs by lower endpoint);
// * state-class ids are allocated in the order classes are first seen, and nodes are
//   re-derived in ascending id order (`World::flush_pairs` sorts its batch);
// * the uniform draws map an index `idx ∈ 0..E` through a deterministic cell walk
//   (intra pairs, then class-2 cells, then class-3 cells, in class/port order) with
//   arithmetic decomposition inside each cell — no storage-order-dependent choice
//   remains.
//
// The pre-existing full enumeration ([`crate::World::enumerate_permissible`]) is kept
// as the validation oracle; [`crate::World::validate_pair_index`] compares the
// recounted totals, the incrementally maintained aggregate and the exact effective
// sets after arbitrary delta sequences.

/// Hard cap on simultaneously *live* state classes. Protocols whose live state
/// diversity exceeds this (e.g. universal TM constructors) overflow the index, which
/// permanently falls back to the adaptive sampler — a soundness valve, not an error.
pub const CLASS_CAP: usize = 64;

/// Ports per node in the widest (3D) model; dense per-class tables are sized by it.
const PORT_CAP: usize = 6;

/// Sentinel for "not a member" positions.
const NONE: u32 = u32::MAX;

/// Packs an unordered node-port pair into a canonical `u64` key. The smaller
/// `(node, port)` endpoint occupies the high bits, so sorting keys sorts by lower
/// endpoint — the order the intra sets reproduce — and the identity the validation
/// oracle compares effective sets by.
pub(crate) fn pair_key(a: NodeId, pa: Dir, b: NodeId, pb: Dir) -> u64 {
    // Node ids get 24 bits each; beyond that the keys would alias silently.
    debug_assert!(
        a.index() < (1 << 24) && b.index() < (1 << 24),
        "pair keys support at most 2^24 nodes"
    );
    let (lo, hi) = if (a.index(), pa.index()) <= (b.index(), pb.index()) {
        ((a, pa), (b, pb))
    } else {
        ((b, pb), (a, pa))
    };
    ((lo.0.index() as u64) << 40)
        | ((lo.1.index() as u64) << 32)
        | ((hi.0.index() as u64) << 8)
        | hi.1.index() as u64
}

/// A read-only view of the world geometry the pair index derives its entries from.
/// Bundled so the index can live beside the `World` fields it reads without borrow
/// conflicts.
pub(crate) struct GeomView<'a, S> {
    pub(crate) dim: Dim,
    pub(crate) states: &'a [S],
    pub(crate) halted: &'a [bool],
    pub(crate) comp_of: &'a [usize],
    pub(crate) components: &'a [Option<Component>],
    pub(crate) placements: &'a [Placement],
    pub(crate) links: &'a [[Option<(NodeId, Dir)>; 6]],
}

impl<S> GeomView<'_, S> {
    fn comp(&self, x: NodeId) -> &Component {
        self.components[self.comp_of[x.index()]]
            .as_ref()
            .expect("component slot of a live node must be occupied")
    }

    fn is_singleton(&self, x: NodeId) -> bool {
        self.comp(x).len() == 1
    }

    /// Whether the cell faced by `x`'s port `pa` is unoccupied in `x`'s component.
    fn port_free(&self, x: NodeId, pa: Dir) -> bool {
        let pl = self.placements[x.index()];
        let target = pl.pos + pl.rot.apply_dir(pa).unit();
        !self.comp(x).is_occupied(target)
    }

    /// The intra-component pair `x`'s port `pa` currently participates in, if any:
    /// the bonded peer, or the same-component node whose facing cell it touches.
    fn intra_entry_at(&self, x: NodeId, pa: Dir) -> Option<IntraEntry> {
        if let Some((peer, pport)) = self.links[x.index()][pa.index()] {
            return Some(IntraEntry {
                peer,
                pport,
                bonded: true,
            });
        }
        let pl = self.placements[x.index()];
        let facing = pl.rot.apply_dir(pa);
        let target = pl.pos + facing.unit();
        let peer = self.comp(x).node_at(target)?;
        let pport = self.placements[peer.index()]
            .rot
            .inverse()
            .apply_dir(facing.opposite());
        Some(IntraEntry {
            peer,
            pport,
            bonded: false,
        })
    }
}

/// One intra-component pair as seen from one of its endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct IntraEntry {
    peer: NodeId,
    pport: Dir,
    bonded: bool,
}

/// The geometry-derived facts a re-derivation of one node needs: computed read-only
/// from the [`GeomView`], then applied to the index.
struct NodeFacts {
    singleton: bool,
    /// Bit `p` set ⇔ the node is multi-component and its port `p` faces a free cell.
    free_mask: u8,
    intra: [Option<IntraEntry>; 6],
}

fn derive_facts<S>(view: &GeomView<'_, S>, x: NodeId) -> NodeFacts {
    let singleton = view.is_singleton(x);
    let mut free_mask = 0u8;
    let mut intra = [None; 6];
    for &pa in view.dim.dirs() {
        if !singleton && view.port_free(x, pa) {
            free_mask |= 1 << pa.index();
        }
        intra[pa.index()] = view.intra_entry_at(x, pa);
    }
    NodeFacts {
        singleton,
        free_mask,
        intra,
    }
}

/// A live state class of the shared class table.
struct ClassSlot<S> {
    state: S,
    halted: bool,
    /// Number of nodes registered with this class (frees the slot at zero).
    refs: u32,
}

/// Exact base counts of the frozen configuration, excluding multi×multi cross pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct BaseCounts {
    /// Permissible pairs in classes 1–3 of the decomposition.
    pub(crate) permissible: u64,
    /// Effective pairs in classes 1–3.
    pub(crate) effective: u64,
}

/// Set key of a node-port: `node·PORT_CAP + port`. A node-port belongs to at most one
/// intra pair, so keying intra pairs by their lower endpoint orders them exactly like
/// their canonical [`pair_key`]s.
fn port_key(x: NodeId, pa: Dir) -> usize {
    x.index() * PORT_CAP + pa.index()
}

/// The node-port a port key stands for.
fn port_at(key: usize) -> (NodeId, Dir) {
    (
        NodeId::new((key / PORT_CAP) as u32),
        Dir::from_index(key % PORT_CAP),
    )
}

/// The members of a node-keyed set, ascending.
fn members(set: &RankSet) -> impl Iterator<Item = NodeId> + '_ {
    set.iter().map(|key| NodeId::new(key as u32))
}

/// The lower endpoint of an intra pair in the [`pair_key`] order: its port key stands
/// for the pair in the intra sets.
fn lower_endpoint(x: NodeId, pa: Dir, peer: NodeId, pport: Dir) -> (NodeId, Dir) {
    if (x.index(), pa.index()) <= (peer.index(), pport.index()) {
        (x, pa)
    } else {
        (peer, pport)
    }
}

/// Inserts into a sorted vector (no-op when present); returns whether it was new.
fn sorted_insert<T: Ord + Copy>(list: &mut Vec<T>, value: T) -> bool {
    match list.binary_search(&value) {
        Ok(_) => false,
        Err(at) => {
            list.insert(at, value);
            true
        }
    }
}

/// Removes from a sorted vector; returns whether it was present.
fn sorted_remove<T: Ord + Copy>(list: &mut Vec<T>, value: T) -> bool {
    match list.binary_search(&value) {
        Ok(at) => {
            list.remove(at);
            true
        }
        Err(_) => false,
    }
}

/// The incremental permissible-pair index. See the section comment above for the
/// decomposition, the aggregate and the canonical-order argument.
pub(crate) struct PairIndex<S> {
    /// Population size: the universe of the node-keyed sets.
    nodes: usize,
    /// The intra pairs, keyed by their lower endpoint (see [`port_key`]); the peer is
    /// read back from `intra`.
    intra_pairs: RankSet,
    /// The effective subset of `intra_pairs`.
    intra_eff: RankSet,
    /// Per state class: the free singletons.
    singletons: Vec<RankSet>,
    /// Per state class and port: the multi-component nodes in that state whose port
    /// faces a free cell.
    free_ports: Vec<[RankSet; PORT_CAP]>,
    /// Class id each node is registered under (`NONE` before `build`).
    node_class: Vec<u32>,
    /// Whether the node is registered as a free singleton.
    reg_singleton: Vec<bool>,
    /// Bit `p` set ⇔ the node is registered as a free port on `p`.
    reg_free: Vec<u8>,
    /// Per node-port: the intra-component pair the port participates in.
    intra: Vec<[Option<IntraEntry>; 6]>,
    /// The shared class table.
    classes: Vec<Option<ClassSlot<S>>>,
    free_class_slots: Vec<u32>,
    /// Live class ids, ascending — the canonical cell-walk order.
    live_ids: Vec<u32>,
    // --- the class-count aggregate ---------------------------------------------------
    /// Per class and port: free-port bucket size.
    g: Vec<[u64; PORT_CAP]>,
    /// Per class: singleton bucket size.
    s: Vec<u64>,
    free_total: u64,
    singleton_total: u64,
    /// Running effective count of class 2 (free port × singleton) pairs.
    class2_eff: u64,
    /// Running effective count of class 3 (singleton × singleton) pairs.
    class3_eff: u64,
    /// Dense per-(class, port, class) bitmask over the peer port: bit `pb` set ⇔ an
    /// unbonded cross pair of those states/ports is effective. Valid only for the
    /// class pairs marked in `filled`; lets the aggregate deltas and the sampling walk
    /// avoid hashing.
    effmask: Vec<u8>,
    /// Dense per-class-pair count of effective ordered port pairs (`Σ popcount`).
    epc: Vec<u16>,
    /// Per class: bit `cb` set ⇔ the pair `(class, cb)` has valid `effmask`/`epc`
    /// entries in both orientations (see [`PairIndex::ensure_pair`]).
    filled: Vec<u64>,
    /// Class pairs filled since the index was built (a work counter for the tests).
    #[cfg(test)]
    pair_fills: u64,
    /// Effectiveness memo for the *recount* path ([`PairIndex::counts`]), kept
    /// hash-based and independent of the dense tables so the two computations
    /// cross-validate each other.
    memo: HashMap<u64, bool, DeterministicState>,
    /// Telemetry handle shared with the owning world (disabled by default): class
    /// allocations/retirements are sampler-visible, deterministic events — they
    /// happen in the ascending node order of a flush — and are worth a step-indexed
    /// trace entry each.
    obs: Telemetry,
}

/// Raised when the live class count exceeds [`CLASS_CAP`]; the world then abandons the
/// index for the rest of the execution.
pub(crate) struct ClassOverflow;

impl<S: Clone + PartialEq> PairIndex<S> {
    pub(crate) fn new() -> PairIndex<S> {
        PairIndex {
            nodes: 0,
            intra_pairs: RankSet::new(0),
            intra_eff: RankSet::new(0),
            singletons: Vec::new(),
            free_ports: Vec::new(),
            node_class: Vec::new(),
            reg_singleton: Vec::new(),
            reg_free: Vec::new(),
            intra: Vec::new(),
            classes: Vec::new(),
            free_class_slots: Vec::new(),
            live_ids: Vec::new(),
            g: Vec::new(),
            s: Vec::new(),
            free_total: 0,
            singleton_total: 0,
            class2_eff: 0,
            class3_eff: 0,
            effmask: Vec::new(),
            epc: Vec::new(),
            filled: Vec::new(),
            #[cfg(test)]
            pair_fills: 0,
            memo: HashMap::default(),
            obs: Telemetry::disabled(),
        }
    }

    /// Attaches the world's telemetry handle (see the `obs` field docs).
    pub(crate) fn set_telemetry(&mut self, obs: Telemetry) {
        self.obs = obs;
    }

    /// Builds the index from scratch for the current configuration.
    pub(crate) fn build<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
    ) -> Result<(), ClassOverflow> {
        let n = view.states.len();
        self.reset(n);
        let all: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        self.flush_batch(view, protocol, &all)
    }

    /// Drops every registration (after an overflow: the index stays unusable).
    pub(crate) fn clear(&mut self) {
        let obs = self.obs.clone();
        *self = PairIndex::new();
        self.obs = obs;
    }

    /// An empty index over `n` nodes with the dense class tables allocated, keeping the
    /// telemetry handle.
    fn reset(&mut self, n: usize) {
        self.clear();
        self.nodes = n;
        self.intra_pairs = RankSet::new(n * PORT_CAP);
        self.intra_eff = RankSet::new(n * PORT_CAP);
        self.node_class = vec![NONE; n];
        self.reg_singleton = vec![false; n];
        self.reg_free = vec![0; n];
        self.intra = vec![[None; 6]; n];
        self.g = vec![[0; PORT_CAP]; CLASS_CAP];
        self.s = vec![0; CLASS_CAP];
        self.effmask = vec![0; CLASS_CAP * PORT_CAP * CLASS_CAP];
        self.epc = vec![0; CLASS_CAP * CLASS_CAP];
        self.filled = vec![0; CLASS_CAP];
    }

    fn singleton_bucket(&self, class: u32) -> &RankSet {
        self.singletons.get(class as usize).unwrap_or(&EMPTY)
    }

    fn free_bucket(&self, class: u32, pa: Dir) -> &RankSet {
        self.free_ports
            .get(class as usize)
            .map_or(&EMPTY, |ports| &ports[pa.index()])
    }

    fn singleton_bucket_mut(&mut self, class: u32) -> &mut RankSet {
        let nodes = self.nodes;
        if self.singletons.len() <= class as usize {
            self.singletons
                .resize_with(class as usize + 1, || RankSet::new(nodes));
        }
        &mut self.singletons[class as usize]
    }

    fn free_bucket_mut(&mut self, class: u32, pa: Dir) -> &mut RankSet {
        let nodes = self.nodes;
        if self.free_ports.len() <= class as usize {
            self.free_ports.resize_with(class as usize + 1, || {
                std::array::from_fn(|_| RankSet::new(nodes))
            });
        }
        &mut self.free_ports[class as usize][pa.index()]
    }

    /// The pinned class-table layout for a snapshot: per slot the live class's state
    /// (`None` for freed slots awaiting reuse) plus the free-slot stack in pop order.
    /// Class ids are allocation-history dependent (freed slots are reused LIFO) and
    /// the canonical sampling walks iterate live ids in ascending order, so a resumed
    /// run must reproduce this layout exactly, not just an equivalent one.
    pub(crate) fn snapshot_class_layout(&self) -> (Vec<Option<S>>, Vec<u32>) {
        let slots = self
            .classes
            .iter()
            .map(|slot| slot.as_ref().map(|class| class.state.clone()))
            .collect();
        (slots, self.free_class_slots.clone())
    }

    /// Rebuilds the index from scratch for the current configuration while pinning
    /// the class table to a snapshot's layout: the slots are pre-seeded (with zero
    /// refcounts and recomputed halted flags) so that `class_for` resolves every node
    /// to its snapshot-time class id by state equality, and the free-slot stack is
    /// restored in pop order. Registering the whole population then rebuilds the
    /// refcounts, the buckets and the running aggregates exactly.
    ///
    /// # Errors
    /// A static description when the layout is internally inconsistent or does not
    /// cover the configuration's states (the decoder maps it into
    /// [`crate::CoreError::SnapshotCorrupt`]); the index is left cleared.
    pub(crate) fn restore_pinned<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
        slots: Vec<Option<S>>,
        free_slots: Vec<u32>,
    ) -> Result<(), &'static str> {
        if slots.len() > CLASS_CAP {
            return Err("class table exceeds the class cap");
        }
        // The free stack must list exactly the empty slots, each once.
        let mut freed = vec![false; slots.len()];
        for &id in &free_slots {
            let Some(flag) = freed.get_mut(id as usize) else {
                return Err("free class slot out of range");
            };
            if *flag {
                return Err("free class slot listed twice");
            }
            *flag = true;
        }
        for (slot, &free) in slots.iter().zip(&freed) {
            if slot.is_none() != free {
                return Err("free-slot stack disagrees with the slot list");
            }
        }
        // `class_for` resolves nodes by state equality against ascending live ids:
        // duplicate states would alias two pinned ids (and can never arise in a
        // genuine run, which allocates a class only when no live one matches).
        let live_states: Vec<&S> = slots.iter().flatten().collect();
        for (i, a) in live_states.iter().enumerate() {
            if live_states.iter().skip(i + 1).any(|b| **a == **b) {
                return Err("two live classes share one state");
            }
        }
        let n = view.states.len();
        self.reset(n);
        self.classes = slots
            .into_iter()
            .map(|slot| {
                slot.map(|state| ClassSlot {
                    halted: protocol.is_halted(&state),
                    state,
                    refs: 0,
                })
            })
            .collect();
        self.free_class_slots = free_slots;
        self.live_ids = (0..self.classes.len() as u32)
            .filter(|&id| self.classes[id as usize].is_some())
            .collect();
        let pinned_live = self.live_ids.clone();
        let pinned_free = self.free_class_slots.clone();
        let pinned_len = self.classes.len();
        let all: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        if self.flush_batch(view, protocol, &all).is_err() {
            self.clear();
            return Err("class table overflowed while re-registering the population");
        }
        // Registration must not have disturbed the pinned layout: every node found
        // its class in the table (no fresh allocation popped the free stack or grew
        // the slot list), and every pinned class is actually referenced.
        if self.live_ids != pinned_live
            || self.free_class_slots != pinned_free
            || self.classes.len() != pinned_len
        {
            self.clear();
            return Err("node states do not match the pinned class table");
        }
        if self.live_ids.iter().any(|&id| self.class(id).refs == 0) {
            self.clear();
            return Err("pinned class has no member nodes");
        }
        Ok(())
    }

    /// Number of free singleton nodes (= singleton components).
    pub(crate) fn singleton_count(&self) -> usize {
        self.singleton_total as usize
    }

    /// `(class pairs filled since the build, live classes holding singletons)`.
    #[cfg(test)]
    pub(crate) fn pair_fill_stats(&self) -> (u64, usize) {
        let singleton_classes = self.live_ids.iter().filter(|&&c| self.s[c as usize] > 0);
        (self.pair_fills, singleton_classes.count())
    }

    /// The incrementally maintained aggregate counts (exact at every configuration).
    pub(crate) fn aggregate_counts(&self, dim: Dim) -> BaseCounts {
        let p = dim.port_count() as u64;
        let s = self.singleton_total;
        BaseCounts {
            permissible: self.intra_pairs.len() as u64
                + self.free_total * p * s
                + p * p * s.saturating_sub(1) * s / 2,
            effective: self.intra_eff.len() as u64 + self.class2_eff + self.class3_eff,
        }
    }

    /// Re-derives a batch of nodes (ascending, deduplicated), one after another in
    /// ascending node order — the order that makes class allocation a function of the
    /// configuration.
    pub(crate) fn flush_batch<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
        nodes: &[NodeId],
    ) -> Result<(), ClassOverflow> {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "batch must be sorted"
        );
        for &x in nodes {
            self.reindex(view, protocol, x)?;
        }
        Ok(())
    }

    /// Re-derives every registration of `x` from the current geometry. Idempotent; the
    /// world calls it (via [`PairIndex::flush_batch`]) for exactly the nodes a delta
    /// may have re-classified: participants, moved nodes, split members, and the
    /// neighbours of newly inserted cells.
    fn reindex<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
        x: NodeId,
    ) -> Result<(), ClassOverflow> {
        let facts = derive_facts(view, x);
        let xi = x.index();
        let dim = view.dim;
        let halted = view.halted[xi];
        let class = match self.class_for(&view.states[xi], halted) {
            Ok(class) => class,
            Err(ClassOverflow) => {
                // If `x` is the sole member of its current class, that class is about
                // to be retired anyway: retiring it first frees a slot, so protocols
                // whose *steady-state* diversity sits exactly at the cap (one node
                // churning through fresh states) do not spuriously overflow.
                let old = self.node_class[xi];
                if old == NONE || self.class(old).refs > 1 {
                    return Err(ClassOverflow);
                }
                self.drop_singleton_reg(dim, x);
                for &pa in dim.dirs() {
                    self.drop_free_port_reg(x, pa);
                }
                self.node_class[xi] = NONE;
                self.release_class(old);
                self.class_for(&view.states[xi], halted)?
            }
        };
        let old_class = self.node_class[xi];
        if old_class != class {
            // Memberships are keyed by class: detach them before re-registering.
            self.drop_singleton_reg(dim, x);
            for &pa in dim.dirs() {
                self.drop_free_port_reg(x, pa);
            }
            self.class_mut(class).refs += 1;
            self.node_class[xi] = class;
            if old_class != NONE {
                self.release_class(old_class);
            }
        }
        if facts.singleton != self.reg_singleton[xi] {
            if facts.singleton {
                self.register_singleton(protocol, dim, class, x);
            } else {
                self.drop_singleton_reg(dim, x);
            }
        }
        for &pa in dim.dirs() {
            let free = !facts.singleton && facts.free_mask & (1 << pa.index()) != 0;
            let registered = self.reg_free[xi] & (1 << pa.index()) != 0;
            if free && !registered {
                self.register_free_port(protocol, dim, class, x, pa);
            } else if !free && registered {
                self.drop_free_port_reg(x, pa);
            }
            // Intra pair at this port.
            let desired = facts.intra[pa.index()];
            let stored = self.intra[xi][pa.index()];
            if stored != desired {
                if let Some(old) = stored {
                    self.unlink_intra(x, pa, old);
                }
                if let Some(new) = desired {
                    if let Some(stale) = self.intra[new.peer.index()][new.pport.index()] {
                        if stale.peer != x || stale.pport != pa {
                            self.unlink_intra(new.peer, new.pport, stale);
                        }
                    }
                    self.intra[xi][pa.index()] = Some(new);
                    self.intra[new.peer.index()][new.pport.index()] = Some(IntraEntry {
                        peer: x,
                        pport: pa,
                        bonded: new.bonded,
                    });
                    let (lo, lo_port) = lower_endpoint(x, pa, new.peer, new.pport);
                    self.intra_pairs.insert(port_key(lo, lo_port));
                }
            }
            if let Some(entry) = self.intra[xi][pa.index()] {
                let lo = lower_endpoint(x, pa, entry.peer, entry.pport);
                let eff = !view.halted[xi]
                    && !view.halted[entry.peer.index()]
                    && crate::world::transition_effective(
                        protocol,
                        &view.states[xi],
                        pa,
                        &view.states[entry.peer.index()],
                        entry.pport,
                        entry.bonded,
                    );
                self.set_intra_eff(lo, eff);
            }
        }
        Ok(())
    }

    // --- class table -------------------------------------------------------------------

    fn class(&self, id: u32) -> &ClassSlot<S> {
        self.classes[id as usize]
            .as_ref()
            .expect("class id must be live")
    }

    fn class_mut(&mut self, id: u32) -> &mut ClassSlot<S> {
        self.classes[id as usize]
            .as_mut()
            .expect("class id must be live")
    }

    fn class_for(&mut self, state: &S, halted: bool) -> Result<u32, ClassOverflow> {
        for &id in &self.live_ids {
            if self.class(id).state == *state {
                return Ok(id);
            }
        }
        if self.live_ids.len() == CLASS_CAP {
            return Err(ClassOverflow);
        }
        let slot = ClassSlot {
            state: state.clone(),
            halted,
            refs: 0,
        };
        let id = if let Some(id) = self.free_class_slots.pop() {
            self.classes[id as usize] = Some(slot);
            id
        } else {
            self.classes.push(Some(slot));
            self.classes.len() as u32 - 1
        };
        sorted_insert(&mut self.live_ids, id);
        self.obs.trace(0, TraceEventKind::ClassAlloc { class: id });
        self.clear_filled(id);
        Ok(id)
    }

    /// Fills both orientations of the class pair `(ca, cb)` in the dense tables, unless
    /// they are already valid for the slots' current tenants. Entries depend only on
    /// the two classes' states, so filling never disturbs the running aggregate.
    fn ensure_pair<P: Protocol<State = S>>(&mut self, protocol: &P, dim: Dim, ca: u32, cb: u32) {
        if self.filled[ca as usize] & (1 << cb) != 0 {
            return;
        }
        // `transition_effective` resolves the unordered pair by trying the first-argument
        // order first, so effectiveness is not automatically symmetric in the two
        // (state, port) roles: the tables are stored *directionally*
        // (`epc[x][y] = Σ eff(x, pa, y, pb)`), and every consumer picks the same
        // canonical orientation as the recount and the sampling walks (lower live class
        // id first).
        let mut pairs_fwd = 0u16;
        let mut pairs_rev = 0u16;
        for &pa in dim.dirs() {
            let mut mask_fwd = 0u8;
            let mut mask_rev = 0u8;
            for &pb in dim.dirs() {
                if self.raw_cross_effective(protocol, ca, pa, cb, pb) {
                    mask_fwd |= 1 << pb.index();
                }
                if self.raw_cross_effective(protocol, cb, pa, ca, pb) {
                    mask_rev |= 1 << pb.index();
                }
            }
            self.effmask[Self::mask_at(ca, pa, cb)] = mask_fwd;
            self.effmask[Self::mask_at(cb, pa, ca)] = mask_rev;
            pairs_fwd += u16::from(mask_fwd.count_ones() as u8);
            pairs_rev += u16::from(mask_rev.count_ones() as u8);
        }
        self.epc[ca as usize * CLASS_CAP + cb as usize] = pairs_fwd;
        self.epc[cb as usize * CLASS_CAP + ca as usize] = pairs_rev;
        self.filled[ca as usize] |= 1 << cb;
        self.filled[cb as usize] |= 1 << ca;
        #[cfg(test)]
        {
            self.pair_fills += 1;
        }
    }

    /// Forgets every filled pair of slot `id`: its tenant changed.
    fn clear_filled(&mut self, id: u32) {
        self.filled[id as usize] = 0;
        for row in &mut self.filled {
            *row &= !(1 << id);
        }
    }

    fn mask_at(ca: u32, pa: Dir, cb: u32) -> usize {
        (ca as usize * PORT_CAP + pa.index()) * CLASS_CAP + cb as usize
    }

    /// Uncached effectiveness of an unbonded cross pair between the two classes.
    fn raw_cross_effective<P: Protocol<State = S>>(
        &self,
        protocol: &P,
        ca: u32,
        pa: Dir,
        cb: u32,
        pb: Dir,
    ) -> bool {
        let a = self.class(ca);
        let b = self.class(cb);
        !a.halted
            && !b.halted
            && crate::world::transition_effective(protocol, &a.state, pa, &b.state, pb, false)
    }

    fn release_class(&mut self, id: u32) {
        let slot = self.class_mut(id);
        slot.refs -= 1;
        if slot.refs == 0 {
            debug_assert_eq!(self.s[id as usize], 0);
            debug_assert_eq!(self.g[id as usize], [0; PORT_CAP]);
            self.classes[id as usize] = None;
            self.obs.trace(0, TraceEventKind::ClassRetire { class: id });
            self.free_class_slots.push(id);
            sorted_remove(&mut self.live_ids, id);
            // Memo entries referencing a retired class id would alias its successor.
            self.memo.retain(|&key, _| {
                (key >> 40) as u32 != id && ((key >> 8) & 0xFF_FFFF) as u32 != id
            });
        }
    }

    // --- registrations and the running aggregate ---------------------------------------

    /// `Σ_{cb live} s[cb] · |{pb : eff(ca, pa, cb, pb)}|` — the class-2 effective pairs
    /// one free port on `(ca, pa)` participates in.
    fn free_port_rate(&self, ca: u32, pa: Dir) -> u64 {
        let mut sum = 0;
        for &cb in &self.live_ids {
            let sc = self.s[cb as usize];
            if sc > 0 {
                sum += sc * u64::from(self.effmask[Self::mask_at(ca, pa, cb)].count_ones());
            }
        }
        sum
    }

    /// `Σ_{ca live, pa} g[ca][pa] · |{pb : eff(ca, pa, c, pb)}|` — the class-2
    /// effective pairs one singleton of class `c` participates in.
    fn singleton_class2_rate(&self, dim: Dim, c: u32) -> u64 {
        let mut sum = 0;
        for &ca in &self.live_ids {
            for &pa in dim.dirs() {
                let ga = self.g[ca as usize][pa.index()];
                if ga > 0 {
                    sum += ga * u64::from(self.effmask[Self::mask_at(ca, pa, c)].count_ones());
                }
            }
        }
        sum
    }

    /// `Σ_{cb live} s[cb] · epc[lo][hi]` (with `(lo, hi) = (min(c, cb), max(c, cb))`) —
    /// the class-3 effective pairs one singleton of class `c` forms with the currently
    /// registered singletons, evaluated in the same canonical orientation (lower live
    /// class id takes the `pa` role) as the recount and the sampling walk, so the
    /// running aggregate stays consistent with both even for protocols whose
    /// transition table is not symmetric in the two roles.
    fn singleton_class3_rate(&self, c: u32) -> u64 {
        let mut sum = 0;
        for &cb in &self.live_ids {
            let sc = self.s[cb as usize];
            if sc > 0 {
                let (lo, hi) = (c.min(cb) as usize, c.max(cb) as usize);
                sum += sc * u64::from(self.epc[lo * CLASS_CAP + hi]);
            }
        }
        sum
    }

    fn register_singleton<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        dim: Dim,
        class: u32,
        x: NodeId,
    ) {
        debug_assert!(!self.reg_singleton[x.index()]);
        // A singleton pairs with every free port and every singleton (its own class
        // included).
        for i in 0..self.live_ids.len() {
            let other = self.live_ids[i];
            let registered = self.s[other as usize] > 0 || self.g[other as usize] != [0; PORT_CAP];
            if other == class || registered {
                self.ensure_pair(protocol, dim, class, other);
            }
        }
        // Deltas are computed against the *pre-registration* totals: the new singleton
        // pairs with every existing free port and singleton.
        self.class2_eff += self.singleton_class2_rate(dim, class);
        self.class3_eff += self.singleton_class3_rate(class);
        self.s[class as usize] += 1;
        self.singleton_total += 1;
        let inserted = self.singleton_bucket_mut(class).insert(x.index());
        debug_assert!(inserted);
        self.reg_singleton[x.index()] = true;
    }

    fn drop_singleton_reg(&mut self, dim: Dim, x: NodeId) {
        if !self.reg_singleton[x.index()] {
            return;
        }
        let class = self.node_class[x.index()];
        let removed = self.singleton_bucket_mut(class).remove(x.index());
        debug_assert!(removed);
        self.reg_singleton[x.index()] = false;
        self.s[class as usize] -= 1;
        self.singleton_total -= 1;
        // Post-removal totals: exactly the pairs the departed singleton was part of.
        self.class2_eff -= self.singleton_class2_rate(dim, class);
        self.class3_eff -= self.singleton_class3_rate(class);
    }

    fn register_free_port<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        dim: Dim,
        class: u32,
        x: NodeId,
        pa: Dir,
    ) {
        // A free port pairs with every singleton.
        for i in 0..self.live_ids.len() {
            let other = self.live_ids[i];
            if self.s[other as usize] > 0 {
                self.ensure_pair(protocol, dim, class, other);
            }
        }
        self.class2_eff += self.free_port_rate(class, pa);
        self.g[class as usize][pa.index()] += 1;
        self.free_total += 1;
        let inserted = self.free_bucket_mut(class, pa).insert(x.index());
        debug_assert!(inserted);
        self.reg_free[x.index()] |= 1 << pa.index();
    }

    fn drop_free_port_reg(&mut self, x: NodeId, pa: Dir) {
        if self.reg_free[x.index()] & (1 << pa.index()) == 0 {
            return;
        }
        let class = self.node_class[x.index()];
        let removed = self.free_bucket_mut(class, pa).remove(x.index());
        debug_assert!(removed);
        self.reg_free[x.index()] &= !(1 << pa.index());
        self.g[class as usize][pa.index()] -= 1;
        self.free_total -= 1;
        self.class2_eff -= self.free_port_rate(class, pa);
    }

    /// Adds (`eff`) or removes the intra pair with lower endpoint `lo` in the
    /// effective-intra set.
    fn set_intra_eff(&mut self, (x, pa): (NodeId, Dir), eff: bool) {
        let key = port_key(x, pa);
        if eff {
            self.intra_eff.insert(key);
        } else {
            self.intra_eff.remove(key);
        }
    }

    /// Removes the stored intra pair anchored at `(x, pa)` from the sets and clears
    /// the mirror entry if it still points back.
    fn unlink_intra(&mut self, x: NodeId, pa: Dir, entry: IntraEntry) {
        let lo = lower_endpoint(x, pa, entry.peer, entry.pport);
        self.intra_pairs.remove(port_key(lo.0, lo.1));
        self.set_intra_eff(lo, false);
        self.intra[x.index()][pa.index()] = None;
        let mirror = &mut self.intra[entry.peer.index()][entry.pport.index()];
        if mirror.is_some_and(|m| m.peer == x && m.pport == pa) {
            *mirror = None;
        }
    }

    // --- the recount (validation twin of the aggregate) --------------------------------

    /// Memoised effectiveness of an unbonded cross pair between a node of class `ca`
    /// interacting through `pa` and a node of class `cb` through `pb`. Hash-memo based
    /// and deliberately independent of the dense `effmask` tables, so
    /// [`PairIndex::counts`] recounts cross-validate the running aggregate.
    fn cross_effective<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        ca: u32,
        pa: Dir,
        cb: u32,
        pb: Dir,
    ) -> bool {
        let key = (u64::from(ca) << 40)
            | ((pa.index() as u64) << 32)
            | (u64::from(cb) << 8)
            | pb.index() as u64;
        if let Some(&v) = self.memo.get(&key) {
            return v;
        }
        let v = self.raw_cross_effective(protocol, ca, pa, cb, pb);
        self.memo.insert(key, v);
        v
    }

    /// A bucket size read from the stored set (not the aggregate).
    fn recount_bucket(&self, class: u32, port: Option<Dir>) -> u64 {
        match port {
            Some(pa) => self.free_bucket(class, pa).len() as u64,
            None => self.singleton_bucket(class).len() as u64,
        }
    }

    /// Exact counts of the base classes (1–3) of the decomposition, recomputed from the
    /// stored sets and the hash memo in `O(classes²·ports²)`. This is the
    /// independent twin of [`PairIndex::aggregate_counts`], kept as the recount oracle
    /// that `World::validate_pair_index` asserts the aggregate against.
    pub(crate) fn counts<P: Protocol<State = S>>(&mut self, protocol: &P, dim: Dim) -> BaseCounts {
        let p = dim.port_count() as u64;
        let intra = self.intra_pairs.len() as u64;
        let intra_eff = self.intra_eff.len() as u64;
        let ids = self.live_ids.clone();
        let s_total: u64 = ids.iter().map(|&c| self.recount_bucket(c, None)).sum();
        let free_total: u64 = ids
            .iter()
            .flat_map(|&c| dim.dirs().iter().map(move |&pa| (c, pa)))
            .map(|(c, pa)| self.recount_bucket(c, Some(pa)))
            .sum();
        let permissible =
            intra + free_total * p * s_total + p * p * s_total.saturating_sub(1) * s_total / 2;
        let mut effective = intra_eff;
        // Class 2: multi-component free ports × singletons, by class pair.
        for &ca in &ids {
            for &pa in dim.dirs() {
                let g = self.recount_bucket(ca, Some(pa));
                if g == 0 {
                    continue;
                }
                for &cb in &ids {
                    let sc = self.recount_bucket(cb, None);
                    if sc == 0 {
                        continue;
                    }
                    for &pb in dim.dirs() {
                        if self.cross_effective(protocol, ca, pa, cb, pb) {
                            effective += g * sc;
                        }
                    }
                }
            }
        }
        // Class 3: singleton × singleton, by unordered class pair; for pairs within one
        // class the node with the smaller id takes `pa`, so each unordered interaction
        // is counted exactly once over the ordered `(pa, pb)` sweep.
        for (i, &ca) in ids.iter().enumerate() {
            let sa = self.recount_bucket(ca, None);
            if sa == 0 {
                continue;
            }
            for &cb in &ids[i..] {
                let sb = self.recount_bucket(cb, None);
                if sb == 0 {
                    continue;
                }
                let pairs = if ca == cb { sa * (sa - 1) / 2 } else { sa * sb };
                if pairs == 0 {
                    continue;
                }
                for &pa in dim.dirs() {
                    for &pb in dim.dirs() {
                        if self.cross_effective(protocol, ca, pa, cb, pb) {
                            effective += pairs;
                        }
                    }
                }
            }
        }
        BaseCounts {
            permissible,
            effective,
        }
    }

    // --- canonical uniform sampling -----------------------------------------------------

    /// The `k`-th singleton of class `c` in ascending node-id order.
    fn kth_singleton(&self, c: u32, k: u64) -> NodeId {
        NodeId::new(self.singleton_bucket(c).select(k as usize) as u32)
    }

    /// The `k`-th free port of `(c, pa)` in ascending node-id order.
    fn kth_free_port(&self, c: u32, pa: Dir, k: u64) -> NodeId {
        NodeId::new(self.free_bucket(c, pa).select(k as usize) as u32)
    }

    /// Unranks `r ∈ 0..C(s, 2)` to the `r`-th pair `(i, j)`, `i < j`, in lexicographic
    /// order over ranks `0..s`.
    fn unrank_pair(r: u64, s: u64) -> (u64, u64) {
        debug_assert!(s >= 2 && r < s * (s - 1) / 2);
        // Rows before row i hold f(i) = i·s − i(i+1)/2 pairs; invert approximately in
        // floats, then fix up exactly (the approximation is off by at most a few rows).
        let sf = s as f64;
        let mut i = (sf - 0.5 - ((sf - 0.5) * (sf - 0.5) - 2.0 * r as f64).max(0.0).sqrt())
            .floor()
            .max(0.0) as u64;
        let row_start = |i: u64| i * s - i * (i + 1) / 2;
        while i + 1 < s && row_start(i + 1) <= r {
            i += 1;
        }
        while row_start(i) > r {
            i -= 1;
        }
        let j = i + 1 + (r - row_start(i));
        debug_assert!(j < s);
        (i, j)
    }

    /// The intra pair whose lower endpoint has port key `key`, oriented lower endpoint
    /// first (the [`pair_key`] orientation).
    fn intra_pair_at(&self, key: usize) -> (NodeId, Dir, NodeId, Dir) {
        let (x, pa) = port_at(key);
        let entry =
            self.intra[x.index()][pa.index()].expect("an intra set member has its pair cell");
        (x, pa, entry.peer, entry.pport)
    }

    /// The `idx`-th effective base pair under the canonical walk order: intra pairs by
    /// lower endpoint, then class-2 cells, then class-3 cells (classes and ports
    /// ascending), with arithmetic decomposition inside each cell. The result is uniform
    /// over the effective base set when `idx` is uniform over `0..aggregate effective`,
    /// and every ordering involved is configuration-canonical.
    pub(crate) fn sample_effective(&self, dim: Dim, mut idx: u64) -> (NodeId, Dir, NodeId, Dir) {
        if (idx as usize) < self.intra_eff.len() {
            return self.intra_pair_at(self.intra_eff.select(idx as usize));
        }
        idx -= self.intra_eff.len() as u64;
        // Class 2 cells: free port (ca, pa) × singleton (cb, pb).
        for &ca in &self.live_ids {
            for &pa in dim.dirs() {
                let g = self.g[ca as usize][pa.index()];
                if g == 0 {
                    continue;
                }
                for &cb in &self.live_ids {
                    let sc = self.s[cb as usize];
                    if sc == 0 {
                        continue;
                    }
                    let mask = self.effmask[Self::mask_at(ca, pa, cb)];
                    if mask == 0 {
                        continue;
                    }
                    for &pb in dim.dirs() {
                        if mask & (1 << pb.index()) == 0 {
                            continue;
                        }
                        let cell = g * sc;
                        if idx < cell {
                            let x = self.kth_free_port(ca, pa, idx / sc);
                            let y = self.kth_singleton(cb, idx % sc);
                            return (x, pa, y, pb);
                        }
                        idx -= cell;
                    }
                }
            }
        }
        // Class 3 cells: singleton × singleton by unordered class pair; within one
        // class the smaller node takes `pa` (the counting convention).
        for (i, &ca) in self.live_ids.iter().enumerate() {
            let sa = self.s[ca as usize];
            if sa == 0 {
                continue;
            }
            for &cb in &self.live_ids[i..] {
                let sb = self.s[cb as usize];
                if sb == 0 {
                    continue;
                }
                let pairs = if ca == cb { sa * (sa - 1) / 2 } else { sa * sb };
                if pairs == 0 {
                    continue;
                }
                for &pa in dim.dirs() {
                    let mask = self.effmask[Self::mask_at(ca, pa, cb)];
                    if mask == 0 {
                        continue;
                    }
                    for &pb in dim.dirs() {
                        if mask & (1 << pb.index()) == 0 {
                            continue;
                        }
                        if idx < pairs {
                            return if ca == cb {
                                let (i, j) = Self::unrank_pair(idx, sa);
                                (self.kth_singleton(ca, i), pa, self.kth_singleton(ca, j), pb)
                            } else {
                                (
                                    self.kth_singleton(ca, idx / sb),
                                    pa,
                                    self.kth_singleton(cb, idx % sb),
                                    pb,
                                )
                            };
                        }
                        idx -= pairs;
                    }
                }
            }
        }
        unreachable!("sample index exceeded the effective base count");
    }

    /// The `idx`-th *permissible* base pair under the canonical walk order (intra pairs,
    /// then free-port × singleton, then singleton²) — uniform over the base permissible
    /// set when `idx` is uniform, configuration-canonical like
    /// [`PairIndex::sample_effective`].
    pub(crate) fn sample_permissible(&self, dim: Dim, mut idx: u64) -> (NodeId, Dir, NodeId, Dir) {
        if (idx as usize) < self.intra_pairs.len() {
            return self.intra_pair_at(self.intra_pairs.select(idx as usize));
        }
        idx -= self.intra_pairs.len() as u64;
        let p = dim.port_count() as u64;
        let s = self.singleton_total;
        let ms = self.free_total * p * s;
        if idx < ms {
            let free_rank = idx / (p * s);
            let rem = idx % (p * s);
            let pb = dim.dirs()[(rem / s) as usize];
            let y = self.global_singleton(rem % s);
            let (x, pa) = self.global_free_port(free_rank);
            return (x, pa, y, pb);
        }
        idx -= ms;
        let pair_rank = idx / (p * p);
        let port_rank = idx % (p * p);
        let pa = dim.dirs()[(port_rank / p) as usize];
        let pb = dim.dirs()[(port_rank % p) as usize];
        let (i, j) = Self::unrank_pair(pair_rank, s);
        (self.global_singleton(i), pa, self.global_singleton(j), pb)
    }

    /// The `k`-th singleton in the canonical global order (class-major, then node id).
    fn global_singleton(&self, mut k: u64) -> NodeId {
        for &c in &self.live_ids {
            let sc = self.s[c as usize];
            if k < sc {
                return self.kth_singleton(c, k);
            }
            k -= sc;
        }
        unreachable!("singleton rank exceeded the population");
    }

    /// The `k`-th free port in the canonical global order (class-major, port, node id).
    fn global_free_port(&self, mut k: u64) -> (NodeId, Dir) {
        for &c in &self.live_ids {
            for pa in 0..PORT_CAP {
                let pa = Dir::from_index(pa);
                let g = self.g[c as usize][pa.index()];
                if k < g {
                    return (self.kth_free_port(c, pa, k), pa);
                }
                k -= g;
            }
        }
        unreachable!("free-port rank exceeded the registration count");
    }

    /// Expands the full effective base set (validation oracle support; `O(E)`).
    pub(crate) fn collect_effective(&self, dim: Dim) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .intra_eff
            .iter()
            .map(|key| {
                let (x, pa, y, pb) = self.intra_pair_at(key);
                pair_key(x, pa, y, pb)
            })
            .collect();
        for &ca in &self.live_ids {
            for &pa in dim.dirs() {
                if self.g[ca as usize][pa.index()] == 0 {
                    continue;
                }
                for &cb in &self.live_ids {
                    if self.s[cb as usize] == 0 {
                        continue;
                    }
                    let mask = self.effmask[Self::mask_at(ca, pa, cb)];
                    for &pb in dim.dirs() {
                        if mask & (1 << pb.index()) == 0 {
                            continue;
                        }
                        for x in members(self.free_bucket(ca, pa)) {
                            for y in members(self.singleton_bucket(cb)) {
                                out.push(pair_key(x, pa, y, pb));
                            }
                        }
                    }
                }
            }
        }
        for (i, &ca) in self.live_ids.iter().enumerate() {
            if self.s[ca as usize] == 0 {
                continue;
            }
            for &cb in &self.live_ids[i..] {
                if self.s[cb as usize] == 0 {
                    continue;
                }
                for &pa in dim.dirs() {
                    let mask = self.effmask[Self::mask_at(ca, pa, cb)];
                    for &pb in dim.dirs() {
                        if mask & (1 << pb.index()) == 0 {
                            continue;
                        }
                        for y in members(self.singleton_bucket(ca)) {
                            for z in members(self.singleton_bucket(cb)) {
                                // Within one class the smaller id takes `pa` (the
                                // counting convention); across classes all ordered
                                // role assignments are distinct cells.
                                if ca == cb && y >= z {
                                    continue;
                                }
                                out.push(pair_key(y, pa, z, pb));
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulation, SimulationConfig, Transition};

    /// The transition rules of Counting-on-a-Line (the protocol crate's
    /// `CountingOnALine`, restated because this crate cannot depend on it): the
    /// leader's counters give it a fresh state class on almost every effective step,
    /// and every recruited tape cell gets a class of its own.
    struct CountingLine {
        head_start: u64,
    }

    #[derive(Clone, PartialEq, Debug)]
    enum Counting {
        Leader {
            r0: u64,
            r1: u64,
            debt: u64,
            cells: u32,
        },
        Halted,
        Tape {
            index: u32,
            r0_bit: bool,
            r1_bit: bool,
        },
        Q0,
        Q1,
        Q2,
    }

    impl Protocol for CountingLine {
        type State = Counting;

        fn initial_state(&self, node: NodeId, _n: usize) -> Counting {
            if node.index() == 0 {
                Counting::Leader {
                    r0: 0,
                    r1: 0,
                    debt: 0,
                    cells: 0,
                }
            } else {
                Counting::Q0
            }
        }

        fn transition(
            &self,
            a: &Counting,
            pa: Dir,
            b: &Counting,
            pb: Dir,
            bonded: bool,
        ) -> Option<Transition<Counting>> {
            let &Counting::Leader {
                r0,
                r1,
                debt,
                cells,
            } = a
            else {
                return None;
            };
            let leader = |r0, r1, debt, cells| Counting::Leader {
                r0,
                r1,
                debt,
                cells,
            };
            let step = |a, b, bond| Some(Transition { a, b, bond });
            if r0 == r1 && r0 >= self.head_start {
                return step(Counting::Halted, b.clone(), bonded);
            }
            match b {
                Counting::Q0 if !bonded && pa == Dir::Right && pb == Dir::Left => {
                    // The tape (leader cell included) is full: recruit the q0.
                    if 64 - (r0 + 1).leading_zeros() > cells + 1 {
                        let tape = Counting::Tape {
                            index: cells,
                            r0_bit: ((r0 + 1) >> cells) & 1 == 1,
                            r1_bit: (r1 >> cells) & 1 == 1,
                        };
                        step(tape, leader(r0 + 1, r1, debt + 1, cells + 1), true)
                    } else {
                        step(leader(r0 + 1, r1, debt, cells), Counting::Q1, false)
                    }
                }
                Counting::Q1 if !bonded && r0 >= self.head_start => {
                    step(leader(r0, r1 + 1, debt, cells), Counting::Q2, false)
                }
                Counting::Q2 if !bonded && debt > 0 => {
                    step(leader(r0, r1, debt - 1, cells), Counting::Q1, false)
                }
                _ => None,
            }
        }

        fn is_halted(&self, state: &Counting) -> bool {
            matches!(state, Counting::Halted)
        }
    }

    /// Lazy class-pair tables: over a run, the effective steps fill at most one class
    /// pair per singleton class plus one each. A typical step fills the fresh leader
    /// class against the q0/q1/q2 classes; the rare step that re-allocates a singleton
    /// class fills it against the tape cells too, which the budget absorbs. Eager
    /// tables filled every fresh leader class against every live class, tape cells
    /// included: `O(live classes)` per step.
    #[test]
    fn counting_fills_at_most_singleton_classes_plus_one_pairs_per_step() {
        for seed in [1, 2] {
            let config = SimulationConfig::new(1024)
                .with_seed(seed)
                .with_sharded_sampling();
            let mut sim = Simulation::new(CountingLine { head_start: 1 }, config);
            // The first call builds the index, filling the initial classes' pairs.
            assert!(sim.step());
            let (start, _) = sim.world().pair_fill_stats();
            let mut budget = 0;
            while !sim.world().any_halted() {
                assert!(sim.step());
                let (_, singleton_classes) = sim.world().pair_fill_stats();
                budget += singleton_classes as u64 + 1;
            }
            let (end, _) = sim.world().pair_fill_stats();
            assert!(
                sim.stats().effective_steps > 1_000,
                "seed {seed}: run too short"
            );
            assert!(
                end - start <= budget,
                "seed {seed}: {} pair fills over {} effective steps exceed the budget {budget}",
                end - start,
                sim.stats().effective_steps - 1,
            );
        }
    }

    #[test]
    fn pair_unranking_is_a_bijection() {
        for s in 2u64..30 {
            let mut seen = std::collections::HashSet::new();
            for r in 0..s * (s - 1) / 2 {
                let (i, j) = PairIndex::<u8>::unrank_pair(r, s);
                assert!(i < j && j < s, "s={s} r={r} gave ({i}, {j})");
                assert!(seen.insert((i, j)), "s={s}: duplicate pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn sorted_insert_remove_roundtrip() {
        let mut v = Vec::new();
        assert!(sorted_insert(&mut v, 5u64));
        assert!(sorted_insert(&mut v, 1));
        assert!(sorted_insert(&mut v, 9));
        assert!(!sorted_insert(&mut v, 5));
        assert_eq!(v, vec![1, 5, 9]);
        assert!(sorted_remove(&mut v, 5));
        assert!(!sorted_remove(&mut v, 5));
        assert_eq!(v, vec![1, 9]);
    }
}
