//! The incremental *permissible-pair index*: exact permissible/effective pair
//! counts of the configuration, maintained in `O(changed)` per world delta, plus
//! uniform draws from either set. It serves the geometric-jump sampler and is
//! the one oracle behind [`crate::World::is_stable`] and
//! [`crate::World::find_effective_interaction`]: a configuration is stable iff its
//! effective count is zero (with the multi×multi class enumerated on demand, see
//! below).

use crate::component::{Component, DeterministicState};
use crate::rank_set::{RankSet, EMPTY};
use crate::world::NodeGeo;
use crate::{NodeId, Protocol};
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
// Everything registered *per node* — its class id, its singleton and free-port flags
// and the intra pair at each of its ports, each packed into a `u32`
// ([`PackedIntra`]) — sits in one 32-byte [`NodeReg`], so re-deriving a node reads and
// writes one cache line of the index (two with the peer it is bonded to or faces).
// Beside the buckets an **aggregate** keeps, per state class, the bucket sizes
// (`g[class][port]`, `s[class]`) and a running total of the effective pair count,
// updated with an exact delta on every single registration change — the rates the
// jump sampler composes its geometric jumps from. Since `CLASS_CAP = 64`, the classes
// with a non-empty bucket fit one `u64` **member mask** each: `single_classes` (bit
// `c` ⇔ `s[c] > 0`) and, per port, `free_classes[pa]` (bit `c` ⇔ `g[c][pa] > 0`). The
// rate deltas, the sampling walks and the effective-set expansion visit only the set
// bits (`trailing_zeros`, ascending — the order of `live_ids`, so every draw is the
// same as a walk over all live classes that skips empty buckets), never a class with
// nothing registered. Class-pair effectiveness lives in a dense table, so both the
// delta maintenance and the uniform sampling walk touch plain arrays, never a hash
// map: `effmask[ca·CLASS_CAP + cb]` packs one byte per port `pa` of `ca`, the *row*
// `(ca, pa, cb)` whose bit `pb` says whether an unbonded pair of those states and
// ports is effective.
//
// The table is filled lazily, one row of `ports` evaluations at a time
// ([`PairIndex::ensure_row`]), because only free-port/singleton × singleton rows are
// ever read, and only in one orientation. A per-class-pair `filled` byte records
// which rows are valid, and the registrations keep one invariant:
//
// * a row `(ca, pa, cb)` is valid whenever `g[ca][pa] > 0` and `s[cb] > 0` (the
//   class-2 rows);
// * the rows `(lo, ·, hi)` are valid whenever both classes hold singletons, `lo ≤ hi`
//   (the class-3 rows; the per-pair count `epc(lo, hi)` is their popcount).
//
// A registration that makes a bucket non-empty fills the rows the invariant newly
// demands: `register_free_port(c, pa)` the rows `(c, pa, ·)` of the singleton classes,
// `register_singleton(c)` the rows `(·, ·, c)` of the free ports and the `(lo, ·, hi)`
// rows of the singleton classes, `c` itself included. Drops only shrink the premise.
// A re-tenanted slot (allocation in `class_for`) clears its own rows and its column
// in the rows of the live classes — a non-live slot's rows are cleared when it is
// re-tenanted in turn — and a rebuild starts with every row clear.
//
// Protocols whose leader takes a fresh state on almost every effective step (every
// constructor of the paper) thus pay per step for the leader's free ports × the
// singleton classes, one row of `ports` evaluations each, not for every live class
// and both orientations of each pair.
//
// # Canonical order
//
// Every ordering the samplers can observe is canonical in the *configuration*:
//
// * the rank/select sets are ordered by node id (intra pairs by lower endpoint);
// * state-class ids are allocated in the order classes are first seen, and nodes are
//   re-derived in ascending id order (`World::flush_pairs` sorts its batch);
// * the uniform draws map an index `idx ∈ 0..E` through a deterministic cell walk
//   (intra pairs, then class-2 cells, then class-3 cells, in ascending class/port
//   order over the member masks) with
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

// A class-pair entry of `effmask` packs one byte-wide row per port into a `u64`, and a
// member mask holds one bit per class.
const _: () = assert!(PORT_CAP <= 8 && CLASS_CAP <= 64);

/// Largest population the index serves. Node ids get 24 bits in a `pair_key` (and
/// 28 in a packed intra entry); past this bound the keys would alias silently, so
/// `PairIndex::build` refuses such worlds the way it refuses a class-table overflow,
/// and they run on the exhaustive fallback path.
pub const MAX_INDEXED_NODES: usize = 1 << 24;

/// Sentinel for "no class yet".
const NONE: u32 = u32::MAX;

/// Packs an unordered node-port pair into a canonical `u64` key. The smaller
/// `(node, port)` endpoint occupies the high bits, so sorting keys sorts by lower
/// endpoint — the order the intra sets reproduce — and the identity the validation
/// oracle compares effective sets by.
pub(crate) fn pair_key(a: NodeId, pa: Dir, b: NodeId, pb: Dir) -> u64 {
    debug_assert!(
        a.index() < MAX_INDEXED_NODES && b.index() < MAX_INDEXED_NODES,
        "pair keys support at most MAX_INDEXED_NODES nodes"
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
    pub(crate) geo: &'a [NodeGeo],
}

impl<S> GeomView<'_, S> {
    fn comp(&self, x: NodeId) -> &Component {
        self.components[self.comp_of[x.index()]]
            .as_ref()
            .expect("component slot of a live node must be occupied")
    }
}

/// One intra-component pair as seen from one of its endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct IntraEntry {
    peer: NodeId,
    pport: Dir,
    bonded: bool,
}

/// An optional [`IntraEntry`] in one `u32`: `peer << 4 | pport << 1 | bonded`, with
/// `u32::MAX` (port bits 7, no port) meaning none. Peers below
/// [`MAX_INDEXED_NODES`] fit the 28 peer bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PackedIntra(u32);

impl PackedIntra {
    const NONE: PackedIntra = PackedIntra(u32::MAX);

    fn pack(peer: NodeId, pport: Dir, bonded: bool) -> PackedIntra {
        debug_assert!(peer.index() < MAX_INDEXED_NODES);
        PackedIntra(
            ((peer.index() as u32) << 4) | ((pport.index() as u32) << 1) | u32::from(bonded),
        )
    }

    fn get(self) -> Option<IntraEntry> {
        (self != PackedIntra::NONE).then(|| IntraEntry {
            peer: NodeId::new(self.0 >> 4),
            pport: Dir::from_index(((self.0 >> 1) & 0b111) as usize),
            bonded: self.0 & 1 == 1,
        })
    }
}

/// Everything the index registers for one node, in one 32-byte record: the hot
/// per-node data of a re-derivation shares one cache line instead of four arrays.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
struct NodeReg {
    /// Per port: the intra-component pair the port participates in.
    intra: [PackedIntra; 6],
    /// Class id the node is registered under (`NONE` before `build`).
    class: u32,
    /// Whether the node is registered as a free singleton.
    singleton: bool,
    /// Bit `p` set ⇔ the node is registered as a free port on `p`.
    free: u8,
}

const _: () = assert!(std::mem::size_of::<NodeReg>() <= 32);

impl NodeReg {
    const UNREGISTERED: NodeReg = NodeReg {
        intra: [PackedIntra::NONE; 6],
        class: NONE,
        singleton: false,
        free: 0,
    };
}

/// The geometry-derived facts a re-derivation of one node needs: computed read-only
/// from the [`GeomView`], then applied to the index.
struct NodeFacts {
    singleton: bool,
    /// Bit `p` set ⇔ the node is multi-component and its port `p` faces a free cell.
    free_mask: u8,
    intra: [PackedIntra; 6],
}

/// Derives `x`'s facts with one occupancy lookup per unbonded port of a
/// multi-component node, and none otherwise: a bonded peer occupies the cell its
/// port faces, and a singleton's frame holds nothing but the node itself.
fn derive_facts<S>(view: &GeomView<'_, S>, x: NodeId) -> NodeFacts {
    let comp = view.comp(x);
    let mut facts = NodeFacts {
        singleton: comp.len() == 1,
        free_mask: 0,
        intra: [PackedIntra::NONE; 6],
    };
    if facts.singleton {
        return facts;
    }
    let geo = &view.geo[x.index()];
    for &pa in view.dim.dirs() {
        if let Some((peer, pport)) = geo.links[pa.index()] {
            facts.intra[pa.index()] = PackedIntra::pack(peer, pport, true);
            continue;
        }
        let facing = geo.pl.rot.apply_dir(pa);
        match comp.node_at(geo.pl.pos + facing.unit()) {
            None => facts.free_mask |= 1 << pa.index(),
            Some(peer) => {
                let pport = view.geo[peer.index()]
                    .pl
                    .rot
                    .inverse()
                    .apply_dir(facing.opposite());
                facts.intra[pa.index()] = PackedIntra::pack(peer, pport, false);
            }
        }
    }
    facts
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

/// The set bits of a class member mask, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros();
            mask &= mask - 1;
            bit
        })
    })
}

/// Index of the class pair `(ca, cb)` in the dense per-pair tables.
fn pair_at(ca: u32, cb: u32) -> usize {
    ca as usize * CLASS_CAP + cb as usize
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
    /// read back from the endpoint's [`NodeReg`].
    intra_pairs: RankSet,
    /// The effective subset of `intra_pairs`.
    intra_eff: RankSet,
    /// Per state class: the free singletons.
    singletons: Vec<RankSet>,
    /// Per state class and port: the multi-component nodes in that state whose port
    /// faces a free cell.
    free_ports: Vec<[RankSet; PORT_CAP]>,
    /// Per node: its class, singleton and free-port registrations and intra pairs.
    regs: Vec<NodeReg>,
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
    /// Member mask: bit `c` set ⇔ `s[c] > 0`.
    single_classes: u64,
    /// Per port: member mask, bit `c` set ⇔ `g[c][pa] > 0`.
    free_classes: [u64; PORT_CAP],
    /// Running effective count of class 2 (free port × singleton) pairs.
    class2_eff: u64,
    /// Running effective count of class 3 (singleton × singleton) pairs.
    class3_eff: u64,
    /// Per class pair ([`pair_at`]): byte `pa` is the row `(ca, pa, cb)`, a bitmask over
    /// the peer port — bit `pb` set ⇔ an unbonded cross pair of those states/ports is
    /// effective. A row holds a value only when marked in `filled` (zero otherwise);
    /// lets the aggregate deltas and the sampling walk avoid hashing.
    effmask: Vec<u64>,
    /// Per class pair: bit `pa` set ⇔ the row `(ca, pa, cb)` of `effmask` is valid for
    /// the slots' current tenants (see [`PairIndex::ensure_row`]).
    filled: Vec<u8>,
    /// Work counters of the row fills, for the tests.
    #[cfg(test)]
    fills: FillStats,
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

/// Work counters of the lazy class-pair table since the index was built.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FillStats {
    /// Class pairs filled: an unordered pair counts when its first row (in either
    /// orientation) is filled since the slots' tenants last changed.
    pub(crate) pairs: u64,
    /// `transition_effective` evaluations spent filling rows.
    pub(crate) evaluations: u64,
    /// Live classes holding singletons now (the bound the pair count is held to).
    pub(crate) singleton_classes: u32,
}

/// Raised when the index cannot serve the world: the live class count exceeds
/// [`CLASS_CAP`], or the population exceeds [`MAX_INDEXED_NODES`]. The world then
/// abandons the index for the rest of the execution.
pub(crate) struct Unindexable;

impl<S: Clone + PartialEq> PairIndex<S> {
    pub(crate) fn new() -> PairIndex<S> {
        PairIndex {
            nodes: 0,
            intra_pairs: RankSet::new(0),
            intra_eff: RankSet::new(0),
            singletons: Vec::new(),
            free_ports: Vec::new(),
            regs: Vec::new(),
            classes: Vec::new(),
            free_class_slots: Vec::new(),
            live_ids: Vec::new(),
            g: Vec::new(),
            s: Vec::new(),
            free_total: 0,
            singleton_total: 0,
            single_classes: 0,
            free_classes: [0; PORT_CAP],
            class2_eff: 0,
            class3_eff: 0,
            effmask: Vec::new(),
            filled: Vec::new(),
            #[cfg(test)]
            fills: FillStats::default(),
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
    ) -> Result<(), Unindexable> {
        let n = view.states.len();
        if n > MAX_INDEXED_NODES {
            return Err(Unindexable);
        }
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
        self.regs = vec![NodeReg::UNREGISTERED; n];
        self.g = vec![[0; PORT_CAP]; CLASS_CAP];
        self.s = vec![0; CLASS_CAP];
        self.effmask = vec![0; CLASS_CAP * CLASS_CAP];
        self.filled = vec![0; CLASS_CAP * CLASS_CAP];
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
        if view.states.len() > MAX_INDEXED_NODES {
            return Err("population exceeds the pair index's node bound");
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

    /// The row-fill work counters since the build.
    #[cfg(test)]
    pub(crate) fn fill_stats(&self) -> FillStats {
        FillStats {
            singleton_classes: self.single_classes.count_ones(),
            ..self.fills
        }
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
    ) -> Result<(), Unindexable> {
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
    ) -> Result<(), Unindexable> {
        let facts = derive_facts(view, x);
        let xi = x.index();
        let dim = view.dim;
        let state = &view.states[xi];
        let current = self.regs[xi].class;
        // A node whose state kept its class needs no scan: a live state has exactly
        // one class, so `class_for` would return the same id.
        let class = if current != NONE && self.class(current).state == *state {
            current
        } else {
            self.class_for_node(view, x)?
        };
        let old_class = self.regs[xi].class;
        if old_class != class {
            // Memberships are keyed by class: detach them before re-registering.
            self.drop_node_regs(dim, x);
            self.class_mut(class).refs += 1;
            self.regs[xi].class = class;
            if old_class != NONE {
                self.release_class(old_class);
            }
        }
        if facts.singleton != self.regs[xi].singleton {
            if facts.singleton {
                self.register_singleton(protocol, dim, class, x);
            } else {
                self.drop_singleton_reg(dim, x);
            }
        }
        let mut flips = facts.free_mask ^ self.regs[xi].free;
        while flips != 0 {
            let pa = Dir::from_index(flips.trailing_zeros() as usize);
            flips &= flips - 1;
            if facts.free_mask & (1 << pa.index()) != 0 {
                self.register_free_port(protocol, dim, class, x, pa);
            } else {
                self.drop_free_port_reg(x, pa);
            }
        }
        for &pa in dim.dirs() {
            let desired = facts.intra[pa.index()];
            let stored = self.regs[xi].intra[pa.index()];
            if stored != desired {
                if let Some(old) = stored.get() {
                    self.unlink_intra(x, pa, old);
                }
                if let Some(new) = desired.get() {
                    let mirror = PackedIntra::pack(x, pa, new.bonded);
                    let peer_slot = self.regs[new.peer.index()].intra[new.pport.index()];
                    if let Some(stale) = peer_slot.get() {
                        if stale.peer != x || stale.pport != pa {
                            self.unlink_intra(new.peer, new.pport, stale);
                        }
                    }
                    self.regs[xi].intra[pa.index()] = desired;
                    self.regs[new.peer.index()].intra[new.pport.index()] = mirror;
                    let (lo, lo_port) = lower_endpoint(x, pa, new.peer, new.pport);
                    self.intra_pairs.insert(port_key(lo, lo_port));
                }
            }
            if let Some(entry) = desired.get() {
                let lo = lower_endpoint(x, pa, entry.peer, entry.pport);
                let eff = !view.halted[xi]
                    && !view.halted[entry.peer.index()]
                    && crate::world::transition_effective(
                        protocol,
                        state,
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

    /// The class of `x`'s current state from the live-class scan, allocating one when
    /// none matches.
    fn class_for_node(&mut self, view: &GeomView<'_, S>, x: NodeId) -> Result<u32, Unindexable> {
        let xi = x.index();
        let (state, halted) = (&view.states[xi], view.halted[xi]);
        match self.class_for(state, halted) {
            Ok(class) => Ok(class),
            Err(Unindexable) => {
                // If `x` is the sole member of its current class, that class is about
                // to be retired anyway: retiring it first frees a slot, so protocols
                // whose *steady-state* diversity sits exactly at the cap (one node
                // churning through fresh states) do not spuriously overflow.
                let old = self.regs[xi].class;
                if old == NONE || self.class(old).refs > 1 {
                    return Err(Unindexable);
                }
                self.drop_node_regs(view.dim, x);
                self.regs[xi].class = NONE;
                self.release_class(old);
                self.class_for(state, halted)
            }
        }
    }

    /// Drops `x`'s singleton and free-port registrations (they are keyed by class).
    fn drop_node_regs(&mut self, dim: Dim, x: NodeId) {
        self.drop_singleton_reg(dim, x);
        let mut free = self.regs[x.index()].free;
        while free != 0 {
            let pa = Dir::from_index(free.trailing_zeros() as usize);
            free &= free - 1;
            self.drop_free_port_reg(x, pa);
        }
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

    fn class_for(&mut self, state: &S, halted: bool) -> Result<u32, Unindexable> {
        for &id in &self.live_ids {
            if self.class(id).state == *state {
                return Ok(id);
            }
        }
        if self.live_ids.len() == CLASS_CAP {
            return Err(Unindexable);
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
        self.clear_rows(id);
        Ok(id)
    }

    /// Fills the row `(ca, pa, cb)` of the dense table — `ports` evaluations — unless
    /// it is already valid for the slots' current tenants. Entries depend only on the
    /// two classes' states, so filling never disturbs the running aggregate.
    ///
    /// `transition_effective` resolves the unordered pair by trying the first-argument
    /// order first, so effectiveness is not automatically symmetric in the two
    /// (state, port) roles: rows are stored *directionally*, and every consumer reads
    /// the same canonical orientation as the recount and the sampling walks (the free
    /// port's class first in class 2, the lower class id first in class 3).
    fn ensure_row<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        dim: Dim,
        ca: u32,
        pa: Dir,
        cb: u32,
    ) {
        let at = pair_at(ca, cb);
        let bit = 1u8 << pa.index();
        if self.filled[at] & bit != 0 {
            return;
        }
        #[cfg(test)]
        {
            if self.filled[at] | self.filled[pair_at(cb, ca)] == 0 {
                self.fills.pairs += 1;
            }
            self.fills.evaluations += dim.port_count() as u64;
        }
        let row = u64::from(self.evaluate_row(protocol, dim, ca, pa, cb));
        let shift = 8 * pa.index();
        self.effmask[at] = (self.effmask[at] & !(0xFF << shift)) | (row << shift);
        self.filled[at] |= bit;
    }

    /// The row `(ca, pa, cb)` evaluated afresh: `ports` uncached evaluations.
    fn evaluate_row<P: Protocol<State = S>>(
        &self,
        protocol: &P,
        dim: Dim,
        ca: u32,
        pa: Dir,
        cb: u32,
    ) -> u8 {
        dim.dirs()
            .iter()
            .filter(|&&pb| self.raw_cross_effective(protocol, ca, pa, cb, pb))
            .fold(0, |row, pb| row | 1 << pb.index())
    }

    /// Invalidates every row of slot `id`, which just took a new tenant: its own rows,
    /// and its column in the rows of the live classes. A slot that is not live keeps
    /// stale rows against `id` until it is re-tenanted and clears them itself.
    fn clear_rows(&mut self, id: u32) {
        let own = pair_at(id, 0)..pair_at(id + 1, 0);
        self.filled[own.clone()].fill(0);
        self.effmask[own].fill(0);
        for &c in &self.live_ids {
            self.filled[pair_at(c, id)] = 0;
            self.effmask[pair_at(c, id)] = 0;
        }
    }

    /// The row `(ca, pa, cb)`: bit `pb` set ⇔ the unbonded pair is effective. Valid
    /// under the invariant of the section comment.
    fn row(&self, ca: u32, pa: Dir, cb: u32) -> u8 {
        (self.effmask[pair_at(ca, cb)] >> (8 * pa.index())) as u8
    }

    /// Effective ordered port pairs of the class pair `(lo, hi)`, `lo` in the `pa`
    /// role: the popcount over its rows (unfilled rows hold zero; the invariant keeps
    /// them all filled while both classes hold singletons).
    fn epc(&self, lo: u32, hi: u32) -> u64 {
        u64::from(self.effmask[pair_at(lo, hi)].count_ones())
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

    /// `Σ_{cb : s[cb] > 0} s[cb] · |{pb : eff(ca, pa, cb, pb)}|` — the class-2
    /// effective pairs one free port on `(ca, pa)` participates in.
    fn free_port_rate(&self, ca: u32, pa: Dir) -> u64 {
        bits(self.single_classes)
            .map(|cb| self.s[cb as usize] * u64::from(self.row(ca, pa, cb).count_ones()))
            .sum()
    }

    /// `Σ_{pa, ca : g[ca][pa] > 0} g[ca][pa] · |{pb : eff(ca, pa, c, pb)}|` — the
    /// class-2 effective pairs one singleton of class `c` participates in.
    fn singleton_class2_rate(&self, dim: Dim, c: u32) -> u64 {
        let mut sum = 0;
        for &pa in dim.dirs() {
            for ca in bits(self.free_classes[pa.index()]) {
                let ga = self.g[ca as usize][pa.index()];
                sum += ga * u64::from(self.row(ca, pa, c).count_ones());
            }
        }
        sum
    }

    /// `Σ_{cb : s[cb] > 0} s[cb] · epc(lo, hi)` (with `(lo, hi) = (min(c, cb),
    /// max(c, cb))`) — the class-3 effective pairs one singleton of class `c` forms
    /// with the currently registered singletons, evaluated in the same canonical
    /// orientation (lower class id takes the `pa` role) as the recount and the
    /// sampling walk, so the running aggregate stays consistent with both even for
    /// protocols whose transition table is not symmetric in the two roles.
    fn singleton_class3_rate(&self, c: u32) -> u64 {
        bits(self.single_classes)
            .map(|cb| self.s[cb as usize] * self.epc(c.min(cb), c.max(cb)))
            .sum()
    }

    fn register_singleton<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        dim: Dim,
        class: u32,
        x: NodeId,
    ) {
        debug_assert!(!self.regs[x.index()].singleton);
        if self.s[class as usize] == 0 {
            // The class's first singleton pairs with every free port and every
            // singleton, its own class included: fill the rows the invariant now
            // demands (a class already holding singletons has them all).
            for &pa in dim.dirs() {
                for ca in bits(self.free_classes[pa.index()]) {
                    self.ensure_row(protocol, dim, ca, pa, class);
                }
            }
            for cb in bits(self.single_classes | 1 << class) {
                let (lo, hi) = (class.min(cb), class.max(cb));
                for &pa in dim.dirs() {
                    self.ensure_row(protocol, dim, lo, pa, hi);
                }
            }
        }
        // Deltas are computed against the *pre-registration* totals: the new singleton
        // pairs with every existing free port and singleton.
        self.class2_eff += self.singleton_class2_rate(dim, class);
        self.class3_eff += self.singleton_class3_rate(class);
        self.s[class as usize] += 1;
        self.single_classes |= 1 << class;
        self.singleton_total += 1;
        let inserted = self.singleton_bucket_mut(class).insert(x.index());
        debug_assert!(inserted);
        self.regs[x.index()].singleton = true;
    }

    fn drop_singleton_reg(&mut self, dim: Dim, x: NodeId) {
        if !self.regs[x.index()].singleton {
            return;
        }
        let class = self.regs[x.index()].class;
        let removed = self.singleton_bucket_mut(class).remove(x.index());
        debug_assert!(removed);
        self.regs[x.index()].singleton = false;
        self.s[class as usize] -= 1;
        if self.s[class as usize] == 0 {
            self.single_classes &= !(1 << class);
        }
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
        if self.g[class as usize][pa.index()] == 0 {
            // The first free port on `(class, pa)` pairs with every singleton.
            for cb in bits(self.single_classes) {
                self.ensure_row(protocol, dim, class, pa, cb);
            }
        }
        self.class2_eff += self.free_port_rate(class, pa);
        self.g[class as usize][pa.index()] += 1;
        self.free_classes[pa.index()] |= 1 << class;
        self.free_total += 1;
        let inserted = self.free_bucket_mut(class, pa).insert(x.index());
        debug_assert!(inserted);
        self.regs[x.index()].free |= 1 << pa.index();
    }

    fn drop_free_port_reg(&mut self, x: NodeId, pa: Dir) {
        if self.regs[x.index()].free & (1 << pa.index()) == 0 {
            return;
        }
        let class = self.regs[x.index()].class;
        let removed = self.free_bucket_mut(class, pa).remove(x.index());
        debug_assert!(removed);
        self.regs[x.index()].free &= !(1 << pa.index());
        self.g[class as usize][pa.index()] -= 1;
        if self.g[class as usize][pa.index()] == 0 {
            self.free_classes[pa.index()] &= !(1 << class);
        }
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
        self.regs[x.index()].intra[pa.index()] = PackedIntra::NONE;
        let mirror = &mut self.regs[entry.peer.index()].intra[entry.pport.index()];
        if mirror.get().is_some_and(|m| m.peer == x && m.pport == pa) {
            *mirror = PackedIntra::NONE;
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

    /// Checks the lazy class layer against the aggregate and the protocol: the member
    /// masks equal `{c : s[c] > 0}` and, per port, `{c : g[c][pa] > 0}`, and every
    /// row the rates and walks can read — the invariant's rows — is marked filled and
    /// equals a fresh evaluation. Validation support, `O(classes²·ports²)`.
    pub(crate) fn check_class_tables<P: Protocol<State = S>>(
        &self,
        protocol: &P,
        dim: Dim,
    ) -> Result<(), String> {
        fn mask_where(nonempty: impl Fn(usize) -> bool) -> u64 {
            (0..CLASS_CAP)
                .filter(|&c| nonempty(c))
                .fold(0, |mask, c| mask | 1 << c)
        }
        let singles = mask_where(|c| self.s[c] > 0);
        if self.single_classes != singles {
            return Err(format!(
                "singleton class mask {:#x} disagrees with the bucket sizes {singles:#x}",
                self.single_classes
            ));
        }
        for pa in 0..PORT_CAP {
            let free = mask_where(|c| self.g[c][pa] > 0);
            if self.free_classes[pa] != free {
                return Err(format!(
                    "free-port class mask of port {pa} is {:#x}, bucket sizes give {free:#x}",
                    self.free_classes[pa]
                ));
            }
        }
        let check_row = |ca: u32, pa: Dir, cb: u32| {
            if self.filled[pair_at(ca, cb)] & (1 << pa.index()) == 0 {
                return Err(format!("row ({ca}, {pa:?}, {cb}) is read but not filled"));
            }
            let fresh = self.evaluate_row(protocol, dim, ca, pa, cb);
            if self.row(ca, pa, cb) != fresh {
                return Err(format!(
                    "row ({ca}, {pa:?}, {cb}) holds {:#b}, a fresh evaluation gives {fresh:#b}",
                    self.row(ca, pa, cb)
                ));
            }
            Ok(())
        };
        for &pa in dim.dirs() {
            for ca in bits(self.free_classes[pa.index()]) {
                for cb in bits(self.single_classes) {
                    check_row(ca, pa, cb)?;
                }
            }
        }
        for lo in bits(self.single_classes) {
            for hi in bits(self.single_classes & (u64::MAX << lo)) {
                for &pa in dim.dirs() {
                    check_row(lo, pa, hi)?;
                }
            }
        }
        Ok(())
    }

    // --- canonical uniform sampling -----------------------------------------------------

    /// Classes with a free port on any port.
    fn free_class_union(&self) -> u64 {
        self.free_classes.iter().fold(0, |union, mask| union | mask)
    }

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
        let entry = self.regs[x.index()].intra[pa.index()]
            .get()
            .expect("an intra set member has its pair cell");
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
        for ca in bits(self.free_class_union()) {
            for &pa in dim.dirs() {
                let g = self.g[ca as usize][pa.index()];
                if g == 0 {
                    continue;
                }
                for cb in bits(self.single_classes) {
                    let sc = self.s[cb as usize];
                    let mask = self.row(ca, pa, cb);
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
        for ca in bits(self.single_classes) {
            let sa = self.s[ca as usize];
            for cb in bits(self.single_classes & (u64::MAX << ca)) {
                let sb = self.s[cb as usize];
                let pairs = if ca == cb { sa * (sa - 1) / 2 } else { sa * sb };
                if pairs == 0 {
                    continue;
                }
                for &pa in dim.dirs() {
                    let mask = self.row(ca, pa, cb);
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
        for c in bits(self.single_classes) {
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
        for c in bits(self.free_class_union()) {
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
        for ca in bits(self.free_class_union()) {
            for &pa in dim.dirs() {
                if self.g[ca as usize][pa.index()] == 0 {
                    continue;
                }
                for cb in bits(self.single_classes) {
                    let mask = self.row(ca, pa, cb);
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
        for ca in bits(self.single_classes) {
            for cb in bits(self.single_classes & (u64::MAX << ca)) {
                for &pa in dim.dirs() {
                    let mask = self.row(ca, pa, cb);
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
            let start = sim.world().fill_stats().pairs;
            let mut budget = 0;
            while !sim.world().any_halted() {
                assert!(sim.step());
                budget += u64::from(sim.world().fill_stats().singleton_classes) + 1;
            }
            let end = sim.world().fill_stats().pairs;
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

    /// The leader-driven rules of the paper's Global Line and Square (the protocol
    /// crate's `GlobalLine` and `Square`, restated because this crate cannot depend on
    /// it): a leader `Lead(side)` absorbs free `Free` nodes and hands its role on.
    #[derive(Clone, Copy)]
    enum LeaderRules {
        /// `(L_i, i), (q0, j), 0 → (q1, L_j̄, 1)`.
        Line,
        /// Rules 1–4 `(L_i, i), (q0, ī), 0 → (q1, L_{cw(i)}, 1)` and 5–8
        /// `(L_i, i), (q1, ī), 0 → (L_{ccw(i)}, q1, 1)`.
        Square,
    }

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum LeaderState {
        Lead(Dir),
        Settled,
        Free,
    }

    impl Protocol for LeaderRules {
        type State = LeaderState;

        fn initial_state(&self, node: NodeId, _n: usize) -> LeaderState {
            match (node.index(), self) {
                (0, LeaderRules::Line) => LeaderState::Lead(Dir::Right),
                (0, LeaderRules::Square) => LeaderState::Lead(Dir::Up),
                _ => LeaderState::Free,
            }
        }

        fn transition(
            &self,
            a: &LeaderState,
            pa: Dir,
            b: &LeaderState,
            pb: Dir,
            bonded: bool,
        ) -> Option<Transition<LeaderState>> {
            let &LeaderState::Lead(side) = a else {
                return None;
            };
            if bonded || pa != side {
                return None;
            }
            let (a, b) = match (self, b) {
                (LeaderRules::Line, LeaderState::Free) => {
                    (LeaderState::Settled, LeaderState::Lead(pb.opposite()))
                }
                (LeaderRules::Square, LeaderState::Free) if pb == side.opposite() => {
                    (LeaderState::Settled, LeaderState::Lead(side.clockwise()))
                }
                (LeaderRules::Square, LeaderState::Settled) if pb == side.opposite() => (
                    LeaderState::Lead(side.counter_clockwise()),
                    LeaderState::Settled,
                ),
                _ => return None,
            };
            Some(Transition { a, b, bond: true })
        }
    }

    /// Row fills: a leader that takes a fresh class on an effective step pays one row
    /// per free port against the one singleton class (`Free`) — at most 3 free ports
    /// (it is bonded to its predecessor) × 4 ports in 2D — and the settled class's rows
    /// are filled once. Pair fills paid both orientations of every port pair, 32
    /// evaluations per fresh leader class, about once per effective step.
    #[test]
    fn leader_steps_fill_at_most_the_leaders_free_port_rows() {
        for (protocol, name) in [(LeaderRules::Line, "line"), (LeaderRules::Square, "square")] {
            for seed in [1, 2, 3] {
                let config = SimulationConfig::new(256)
                    .with_seed(seed)
                    .with_sharded_sampling();
                let mut sim = Simulation::new(protocol, config);
                // The first call builds the index and makes the leader multi-node.
                assert!(sim.step());
                let start = sim.world().fill_stats().evaluations;
                let report = sim.run_until_stable();
                assert!(report.stabilized, "{name} seed {seed}");
                let evaluations = sim.world().fill_stats().evaluations - start;
                let steps = sim.stats().effective_steps - 1;
                assert!(steps + 1 >= 255, "{name} seed {seed}: run too short");
                assert!(
                    evaluations <= 3 * 4 * steps,
                    "{name} seed {seed}: {evaluations} row-fill evaluations over {steps} \
                     effective steps exceed 12 per step"
                );
            }
        }
    }

    /// Every node in one state, never effective: enough to build an index over.
    struct Inert;

    impl Protocol for Inert {
        type State = ();

        fn initial_state(&self, _node: NodeId, _n: usize) {}

        fn transition(&self, _: &(), _: Dir, _: &(), _: Dir, _: bool) -> Option<Transition<()>> {
            None
        }
    }

    #[test]
    fn build_refuses_populations_past_the_node_bound() {
        // Zero-sized states: the view spans `MAX_INDEXED_NODES + 1` nodes without
        // allocating them, and the refusal comes before any other slice is read.
        let states = vec![(); MAX_INDEXED_NODES + 1];
        let view = GeomView {
            dim: Dim::Two,
            states: &states,
            halted: &[],
            comp_of: &[],
            components: &[],
            geo: &[],
        };
        let mut index = PairIndex::new();
        assert!(index.build(&view, &Inert).is_err());
        assert!(index
            .restore_pinned(&view, &Inert, vec![Some(())], Vec::new())
            .is_err());
        // At the bound's scale nothing else changes: a small world still builds.
        let world = crate::World::new(Inert, 5);
        world
            .validate_pair_index()
            .expect("a small world is indexed");
    }

    #[test]
    fn packed_intra_round_trips_up_to_the_largest_indexed_id() {
        let largest = NodeId::new((MAX_INDEXED_NODES - 1) as u32);
        for peer in [NodeId::new(0), NodeId::new(1), largest] {
            for port in 0..PORT_CAP {
                let pport = Dir::from_index(port);
                for bonded in [false, true] {
                    let packed = PackedIntra::pack(peer, pport, bonded);
                    assert_ne!(packed, PackedIntra::NONE);
                    assert_eq!(
                        packed.get(),
                        Some(IntraEntry {
                            peer,
                            pport,
                            bonded
                        })
                    );
                }
            }
        }
        assert_eq!(PackedIntra::NONE.get(), None);
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
