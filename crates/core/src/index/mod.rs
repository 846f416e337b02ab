//! The incremental *permissible-pair index*: exact permissible/effective pair
//! counts of the configuration, maintained in `O(changed)` per world delta, plus
//! uniform draws from either set. It serves the geometric-jump sampler and is the one
//! oracle behind [`crate::World::is_stable`] and
//! [`crate::World::find_effective_interaction`]: a configuration is stable iff its
//! effective count is zero (with the multi×multi class enumerated on demand).
//!
//! # Decomposition
//!
//! The permissible set splits into classes whose sizes are maintainable exactly:
//!
//! 1. **Intra-component pairs** (bonded, or facing-adjacent in one component): purely
//!    local — whether `(x, pa)` participates depends only on `x`'s links and the
//!    occupancy of the one cell its port faces. Kept by lower endpoint in the intra
//!    buckets (`intra.rs`).
//! 2. **Multi-component node × free singleton**: a port of a node in a ≥2-node
//!    component whose facing cell is unoccupied accepts *any* free singleton through
//!    *any* of its ports (singletons are arbitrarily rotatable and have nothing else to
//!    collide), so these pairs are counted as `free_ports · ports · singletons` without
//!    being materialised. Effectiveness depends only on the two states and ports, so
//!    grouping singletons and free ports by *state class* turns the effective count
//!    into a small sum over class pairs: the class table (`classes.rs`).
//! 3. **Singleton × singleton**: always permissible, counted as `ports² · C(s, 2)`;
//!    effectiveness again per class pair.
//! 4. **Multi × multi cross-component pairs**: the only class whose permissibility
//!    depends on non-local geometry (collision of two rigid shapes). These are *not*
//!    maintained incrementally — [`crate::World::enumerate_cross_multi`] enumerates
//!    them per frozen version under a budget, and the caller falls back to rejection
//!    sampling past it. In the growth workloads (one growing component absorbing free
//!    nodes) this class is empty.
//!
//! When a component grows, pairs anchored at its *unmoved* members can silently lose
//! permissibility (the new cells block placements), which is why class 4 cannot ride
//! the delta stream. Classes 1–3 are immune: intra adjacency is rigid under merges, and
//! the singleton classes depend only on the facing cell of one port — the world marks
//! the neighbours of every newly inserted cell as touched, exactly the set whose
//! free-port flags can flip.
//!
//! # Layout and canonical order
//!
//! Every bucket is a rank/select set ([`RankSet`]) over a dense universe, keyed by node
//! id (per class the free singletons and, per port, the free multi-component ports) or
//! by lower endpoint (the intra pairs): ascending iteration, and `select(k)` is the
//! `k`-th smallest member. A bucket of at most eight members keeps them inline, where
//! an update is a short shift and `select` one load; a larger one has spilled into a
//! bitset with `O(log n)` updates and a branch-free `O(log n)` select. Most bucket
//! traffic lands in the small form: the unique leader of a constructor sits alone in
//! its class's free-port buckets and changes class on almost every effective step.
//! Everything registered *per node* — its class id, its singleton and
//! free-port flags and the intra pair at each port ([`PackedIntra`]) — sits in one
//! 32-byte [`NodeReg`], so re-deriving a node touches one cache line of the index (two
//! with the peer it pairs with). Nodes are re-derived in ascending id order
//! (`World::flush_pairs` sorts its batch), which makes class allocation a function of
//! the configuration, and the draws map an index `idx ∈ 0..E` through the intra pairs,
//! then the class table's cell walk ([`ClassTable::rows`]): every ordering the samplers
//! can observe is canonical in the configuration. A draw returns the pair with its
//! [`DrawnKind`] — an intra pair's bonded bit, or that its second node is a free
//! singleton — from which the world builds the pair's permissibility without
//! re-deriving it. [`crate::World::validate_pair_index`]
//! checks all of it against the full enumeration
//! ([`crate::World::enumerate_permissible`]).

mod classes;
mod intra;

use crate::component::Component;
use crate::rank_set::{RankSet, EMPTY};
use crate::world::NodeGeo;
use crate::{NodeId, Protocol};
#[cfg(test)]
pub(crate) use classes::FillStats;
pub use classes::CLASS_CAP;
use classes::{ports, ClassPair, ClassTable};
use intra::{lower_endpoint, IntraBuckets, IntraEntry, PackedIntra};
use nc_geometry::{Dim, Dir};
use nc_obs::{Telemetry, TraceEventKind};
use std::ops::ControlFlow;

/// Work counters of the world's stability oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Exhaustive `O(n² · ports²)` fallback scans run by [`crate::World::is_stable`] or
    /// [`crate::World::find_effective_interaction`]: only when the pair index cannot
    /// answer (class-table overflow, or a multi×multi cross universe over budget).
    /// Zero whenever the pair index answered every query.
    pub node_scans: u64,
}

/// Ports per node in the widest (3D) model; dense per-class tables are sized by it.
const PORT_CAP: usize = 6;

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

/// A read-only view of the world geometry the pair index derives its entries from,
/// so the index can live beside the `World` fields it reads without borrow conflicts.
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

/// Exact base counts of the frozen configuration, excluding multi×multi cross pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct BaseCounts {
    /// Permissible pairs in classes 1–3 of the decomposition.
    pub(crate) permissible: u64,
    /// Effective pairs in classes 1–3.
    pub(crate) effective: u64,
}

/// Why a drawn pair is permissible, as far as the index knows it from where the pair
/// is kept; the world completes it into a [`crate::Permissibility`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DrawnKind {
    /// An intra-component pair, bonded or facing-adjacent ([`PackedIntra`]'s bit).
    Intra { bonded: bool },
    /// A class-cell pair: the second node is a free singleton and the first node's
    /// port faces a free cell, so the two merge without collision.
    WithSingleton,
}

/// A pair drawn from the index: its node-ports and [`DrawnKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DrawnPair {
    pub(crate) a: NodeId,
    pub(crate) pa: Dir,
    pub(crate) b: NodeId,
    pub(crate) pb: Dir,
    pub(crate) kind: DrawnKind,
}

/// The incremental permissible-pair index. See the module docs for the
/// decomposition, the layout and the canonical-order argument.
pub(crate) struct PairIndex<S> {
    /// Population size: the universe of the node-keyed sets.
    nodes: usize,
    /// Class 1: the intra pairs and their effective subset.
    intra: IntraBuckets,
    /// Per state class: the free singletons.
    singletons: Vec<RankSet>,
    /// Per state class and port: the multi-component nodes in that state whose port
    /// faces a free cell.
    free_ports: Vec<[RankSet; PORT_CAP]>,
    /// Per node: its class, singleton and free-port registrations and intra pairs.
    regs: Vec<NodeReg>,
    /// Classes 2–3: the state classes, their bucket sizes, rows and rates.
    classes: ClassTable<S>,
    /// The owning world's telemetry handle: class allocations and retirements are
    /// deterministic (the ascending node order of a flush) step-indexed trace events.
    obs: Telemetry,
}

/// Raised when the index cannot serve the world: the live class count exceeds
/// [`CLASS_CAP`], or the population exceeds [`MAX_INDEXED_NODES`]. The world then
/// abandons the index for the rest of the execution.
pub(crate) struct Unindexable;

impl<S: Clone + PartialEq> PairIndex<S> {
    pub(crate) fn new() -> PairIndex<S> {
        PairIndex {
            nodes: 0,
            intra: IntraBuckets::new(0),
            singletons: Vec::new(),
            free_ports: Vec::new(),
            regs: Vec::new(),
            classes: ClassTable::new(0),
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
        self.rebuild(view, protocol, None)
    }

    /// Drops every registration (after an overflow: the index stays unusable).
    pub(crate) fn clear(&mut self) {
        let obs = self.obs.clone();
        *self = PairIndex::new();
        self.obs = obs;
    }

    /// Registers the whole population afresh over `pinned` (a fresh class table, made
    /// after the per-node records, when `None`), keeping the telemetry handle; refuses
    /// populations past [`MAX_INDEXED_NODES`] before touching anything.
    fn rebuild<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
        pinned: Option<ClassTable<S>>,
    ) -> Result<(), Unindexable> {
        let n = view.states.len();
        if n > MAX_INDEXED_NODES {
            return Err(Unindexable);
        }
        self.clear();
        self.nodes = n;
        self.intra = IntraBuckets::new(n);
        self.regs = vec![NodeReg::UNREGISTERED; n];
        self.classes = pinned.unwrap_or_else(|| ClassTable::new(CLASS_CAP));
        let all: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        self.flush_batch(view, protocol, &all)
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

    /// The pinned class-table layout for a snapshot (see [`ClassTable::layout`]).
    pub(crate) fn snapshot_class_layout(&self) -> (Vec<Option<S>>, Vec<u32>) {
        self.classes.layout()
    }

    /// Rebuilds the index with the class table pinned to a snapshot's layout
    /// ([`ClassTable::pinned`]): every node resolves to its snapshot-time class id by
    /// state equality, so the refcounts, buckets and rates are rebuilt exactly.
    ///
    /// # Errors
    /// A static description (mapped into [`crate::CoreError::SnapshotCorrupt`]) when the
    /// layout is inconsistent or does not cover the states; the index is then cleared.
    pub(crate) fn restore_pinned<P: Protocol<State = S>>(
        &mut self,
        view: &GeomView<'_, S>,
        protocol: &P,
        slots: Vec<Option<S>>,
        free_slots: Vec<u32>,
    ) -> Result<(), &'static str> {
        let table = ClassTable::pinned(protocol, slots, free_slots)?;
        let pinned = table.layout();
        if self.rebuild(view, protocol, Some(table)).is_err() {
            self.clear();
            return Err("population past the node bound, or class table overflowed");
        }
        // Registration must leave the pinned layout as it was (no allocation popped the
        // free stack or grew the slot list; checked first, so every pinned slot is still
        // occupied), and every pinned class must be referenced.
        let unused =
            |(c, slot): (usize, &Option<S>)| slot.is_some() && self.classes.refs(c as u32) == 0;
        if self.classes.layout() != pinned || pinned.0.iter().enumerate().any(unused) {
            self.clear();
            return Err("node states do not match the pinned class table");
        }
        Ok(())
    }

    /// Number of free singleton nodes (= singleton components).
    pub(crate) fn singleton_count(&self) -> usize {
        self.classes.singleton_total() as usize
    }

    /// The row-fill work counters since the build.
    #[cfg(test)]
    pub(crate) fn fill_stats(&self) -> FillStats {
        self.classes.fill_stats()
    }

    /// Whether any free-port bucket of `x`'s class has spilled out of its inline form.
    #[cfg(test)]
    pub(crate) fn free_ports_spilled(&self, x: NodeId) -> bool {
        let class = self.regs[x.index()].class;
        Dim::Three
            .dirs()
            .iter()
            .any(|&pa| self.free_bucket(class, pa).spilled())
    }

    /// The incrementally maintained aggregate counts (exact at every configuration).
    pub(crate) fn aggregate_counts(&self, dim: Dim) -> BaseCounts {
        let classes = self.classes.counts(dim);
        BaseCounts {
            permissible: self.intra.len() + classes.permissible,
            effective: self.intra.effective_len() + classes.effective,
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
    /// world calls it ([`PairIndex::flush_batch`]) for the nodes a delta may have
    /// re-classified: participants, moved nodes, split members, new cells' neighbours.
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
        let class = if current != NONE && self.classes.state(current) == state {
            current
        } else {
            self.class_for_node(view, x)?
        };
        let old_class = self.regs[xi].class;
        if old_class != class {
            // Memberships are keyed by class: detach them before re-registering.
            self.drop_node_regs(dim, x);
            self.classes.acquire(class);
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
        for pa in ports(facts.free_mask ^ self.regs[xi].free) {
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
                    self.intra
                        .insert(lower_endpoint(x, pa, new.peer, new.pport));
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
                self.intra.set_effective(lo, eff);
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
                if old == NONE || self.classes.refs(old) > 1 {
                    return Err(Unindexable);
                }
                self.drop_node_regs(view.dim, x);
                self.regs[xi].class = NONE;
                self.release_class(old);
                self.class_for(state, halted)
            }
        }
    }

    /// The live class of `state`, allocating one when none matches.
    fn class_for(&mut self, state: &S, halted: bool) -> Result<u32, Unindexable> {
        if let Some(id) = self.classes.find(state) {
            return Ok(id);
        }
        let id = self.classes.allocate(state.clone(), halted)?;
        self.obs.trace(0, TraceEventKind::ClassAlloc { class: id });
        Ok(id)
    }

    fn release_class(&mut self, id: u32) {
        if self.classes.release(id) {
            self.obs.trace(0, TraceEventKind::ClassRetire { class: id });
        }
    }

    /// Drops `x`'s singleton and free-port registrations (they are keyed by class).
    fn drop_node_regs(&mut self, dim: Dim, x: NodeId) {
        self.drop_singleton_reg(dim, x);
        for pa in ports(self.regs[x.index()].free) {
            self.drop_free_port_reg(x, pa);
        }
    }

    fn register_singleton<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        dim: Dim,
        class: u32,
        x: NodeId,
    ) {
        debug_assert!(!self.regs[x.index()].singleton);
        self.classes.add_singleton(protocol, dim, class);
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
        self.classes.remove_singleton(dim, class);
    }

    fn register_free_port<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        dim: Dim,
        class: u32,
        x: NodeId,
        pa: Dir,
    ) {
        self.classes.add_free_port(protocol, dim, class, pa);
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
        self.classes.remove_free_port(class, pa);
    }

    /// Removes the stored intra pair anchored at `(x, pa)` from the sets and clears
    /// the mirror entry if it still points back.
    fn unlink_intra(&mut self, x: NodeId, pa: Dir, entry: IntraEntry) {
        self.intra
            .remove(lower_endpoint(x, pa, entry.peer, entry.pport));
        self.regs[x.index()].intra[pa.index()] = PackedIntra::NONE;
        let mirror = &mut self.regs[entry.peer.index()].intra[entry.pport.index()];
        if mirror.get().is_some_and(|m| m.peer == x && m.pport == pa) {
            *mirror = PackedIntra::NONE;
        }
    }

    /// Checks the class table against itself, the registrations and the protocol
    /// ([`ClassTable::check`]).
    pub(crate) fn check_classes<P: Protocol<State = S>>(
        &self,
        protocol: &P,
        dim: Dim,
    ) -> Result<(), String> {
        let named = self.regs.iter().map(|reg| reg.class).filter(|&c| c != NONE);
        let bucket_len = |c, port: Option<Dir>| match port {
            Some(pa) => self.free_bucket(c, pa).len() as u64,
            None => self.singleton_bucket(c).len() as u64,
        };
        self.classes.check(protocol, dim, named, bucket_len)
    }

    /// The node-ports a class-cell pair stands for: its ranks selected in the buckets.
    /// The second node is always a free singleton.
    fn resolve(&self, pair: ClassPair) -> DrawnPair {
        let ((ca, ka, pa), (cb, kb, pb)) = (pair.a, pair.b);
        let a = if pair.free_port {
            self.free_bucket(ca, pa)
        } else {
            self.singleton_bucket(ca)
        };
        DrawnPair {
            a: NodeId::new(a.select(ka as usize) as u32),
            pa,
            b: NodeId::new(self.singleton_bucket(cb).select(kb as usize) as u32),
            pb,
            kind: DrawnKind::WithSingleton,
        }
    }

    /// The intra pair with lower endpoint `(x, pa)`, in the [`pair_key`] orientation.
    fn intra_pair_at(&self, (x, pa): (NodeId, Dir)) -> DrawnPair {
        let entry = self.regs[x.index()].intra[pa.index()]
            .get()
            .expect("an intra set member has its pair cell");
        DrawnPair {
            a: x,
            pa,
            b: entry.peer,
            pb: entry.pport,
            kind: DrawnKind::Intra {
                bonded: entry.bonded,
            },
        }
    }

    /// The `idx`-th effective base pair in canonical order — intra pairs by lower
    /// endpoint, then the class cells ([`ClassTable::kth_effective`]): uniform over the
    /// effective base set when `idx` is uniform over `0..aggregate effective`.
    pub(crate) fn sample_effective(&self, dim: Dim, idx: u64) -> DrawnPair {
        let intra = self.intra.effective_len();
        if idx < intra {
            return self.intra_pair_at(self.intra.kth(true, idx));
        }
        self.resolve(self.classes.kth_effective(dim, idx - intra))
    }

    /// The `idx`-th *permissible* base pair in canonical order (intra pairs, then
    /// [`ClassTable::kth_permissible`]): uniform when `idx` is uniform.
    pub(crate) fn sample_permissible(&self, dim: Dim, idx: u64) -> DrawnPair {
        let intra = self.intra.len();
        if idx < intra {
            return self.intra_pair_at(self.intra.kth(false, idx));
        }
        self.resolve(self.classes.kth_permissible(dim, idx - intra))
    }

    /// Expands the full effective base set through the same cells and the same
    /// [`PairIndex::resolve`] the draws use (validation oracle support; `O(E log n)`).
    pub(crate) fn collect_effective(&self, dim: Dim) -> Vec<u64> {
        let key = |d: DrawnPair| pair_key(d.a, d.pa, d.b, d.pb);
        let mut out: Vec<u64> = self
            .intra
            .effective()
            .map(|lo| key(self.intra_pair_at(lo)))
            .collect();
        let _ = self.classes.rows(dim, |row| {
            for pb in ports(row.mask) {
                out.extend((0..row.pairs()).map(|k| key(self.resolve(row.pick(pb, k)))));
            }
            ControlFlow::<()>::Continue(())
        });
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
    /// tables evaluated every fresh leader class against every live class, tape cells
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
    /// are evaluated once. Pair fills paid both orientations of every port pair, 32
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

    /// Inline buckets: the leader is alone in its class's free-port buckets, so the
    /// class change on almost every effective step moves it between one-member sets
    /// that never allocate. Over the whole run only the buckets that outgrow eight
    /// members spill: the intra pairs and the settled class's free ports (the line's
    /// members keep the two ports across it free, on any of the four ports).
    #[test]
    fn line_leader_free_port_buckets_never_spill() {
        for seed in [1, 2, 3] {
            let config = SimulationConfig::new(256)
                .with_seed(seed)
                .with_sharded_sampling();
            let mut sim = Simulation::new(LeaderRules::Line, config);
            // The first call builds the index: the free singletons' bucket spills.
            assert!(sim.step());
            let start = crate::rank_set::spills();
            while !sim.world().is_stable() {
                assert!(sim.step());
                let leader = sim
                    .world()
                    .nodes()
                    .find(|&x| matches!(sim.world().state(x), LeaderState::Lead(_)))
                    .expect("the line has a leader");
                assert!(
                    !sim.world().free_ports_spilled(leader),
                    "seed {seed}: the leader's free-port bucket spilled at step {}",
                    sim.stats().effective_steps
                );
            }
            assert_eq!(sim.stats().effective_steps, 255, "seed {seed}");
            let spills = crate::rank_set::spills() - start;
            assert!(spills <= 5, "seed {seed}: {spills} buckets spilled");
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
                let (i, j) = classes::unrank_pair(r, s);
                assert!(i < j && j < s, "s={s} r={r} gave ({i}, {j})");
                assert!(seen.insert((i, j)), "s={s}: duplicate pair ({i}, {j})");
            }
        }
    }
}
