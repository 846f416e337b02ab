//! The configuration of the system: node states, bonds, and rigid component embeddings.
//!
//! The world also maintains incremental metadata: a per-node halted cache, a monotone
//! configuration [`World::version`], and the lazily built permissible-pair index of
//! [`crate::index`], which answers [`World::is_stable`] from its `O(1)` effective count
//! and [`World::find_effective_interaction`] from its canonical pair walk instead of a
//! full `O(n² · ports²)` rescan. Index maintenance is sequential: every mutation
//! queues the nodes it re-classifies and flushes them, in ascending node order, before
//! it returns (see the canonical-order notes in [`crate::index`]).

mod codec;
mod cross;
mod output;

use crate::index::{GeomView, IndexStats, PairIndex};
use crate::{Component, NodeId, Placement, Protocol};
use nc_geometry::{Coord, Dim, Dir, Rotation};
use nc_obs::{Phase, Telemetry, TraceEventKind};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

/// Number of canonical trace lanes (see [`trace_lane`]).
pub(crate) const TRACE_LANES: usize = 4;

/// The canonical trace lane of a node: its part under a fixed [`TRACE_LANES`]-way
/// partition of `0..n` into contiguous id ranges of (up to) `⌈n/TRACE_LANES⌉` ids.
///
/// Step-indexed trace events are stamped with this lane, a function of `(node, n)`
/// only, so a trace is a function of the executed trajectory.
#[must_use]
pub(crate) fn trace_lane(node: NodeId, n: usize) -> u32 {
    let n = n.max(1) as u32;
    let lanes = (TRACE_LANES as u32).min(n);
    node.index() as u32 / n.div_ceil(lanes)
}

/// Budget for cross-component enumeration work, in node pairs, as a multiple of the
/// population size. One constant shared by the adaptive sampler's enumeration refusal,
/// the sharded sampler's multi×multi enumeration, and the stability fast path, so they
/// all agree on when cross-component enumeration is affordable.
pub(crate) const CROSS_BUDGET_PER_NODE: usize = 64;

/// Whether applying the pair `(sa, pa) – (sb, pb)` (in either order, as the simulator
/// does) would change a state or the bond. Shared between
/// [`World::effective_interaction_at`] and the permissible-pair index so both agree on
/// one definition of effectiveness. Halted-participant filtering is the caller's job.
pub(crate) fn transition_effective<P: Protocol>(
    protocol: &P,
    sa: &P::State,
    pa: Dir,
    sb: &P::State,
    pb: Dir,
    bonded: bool,
) -> bool {
    let attempt = protocol
        .transition(sa, pa, sb, pb, bonded)
        .map(|t| (t, false))
        .or_else(|| {
            protocol
                .transition(sb, pb, sa, pa, bonded)
                .map(|t| (t, true))
        });
    attempt.is_some_and(|(t, swapped)| {
        let (new_a, new_b) = if swapped { (&t.b, &t.a) } else { (&t.a, &t.b) };
        t.bond != bonded || new_a != sa || new_b != sb
    })
}

/// Lifecycle of the permissible-pair index: built on first use (a jump draw or a
/// stability query), abandoned for good when the protocol's live state diversity
/// overflows the class table; it only advances (`Disabled → Active → Overflowed`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PairMode {
    Disabled,
    Active,
    Overflowed,
}

struct PairCell<S> {
    mode: PairMode,
    index: PairIndex<S>,
}

/// Exact pair counts of a frozen configuration ([`World::aggregate_pair_counts`]),
/// excluding the multi×multi cross pairs ([`World::enumerate_cross_multi`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PairSummary {
    /// Permissible pairs excluding multi×multi cross pairs.
    pub(crate) permissible_base: u64,
    /// Effective pairs excluding multi×multi cross pairs.
    pub(crate) effective_base: u64,
    /// Number of components with at least two nodes.
    pub(crate) multi_components: usize,
}

/// Why a pair of node-ports is allowed to interact at the current configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Permissibility {
    /// The two ports are already joined by an active bond.
    Bonded,
    /// The two nodes belong to the same component and the two ports face each other at
    /// unit distance (so activating the bond keeps the component a valid shape).
    SameComponentAdjacent,
    /// The two nodes belong to different components which can be rigidly placed so that
    /// the two ports face each other at unit distance without any two nodes overlapping.
    /// The transform maps the second node's component frame into the first node's frame.
    Merge {
        /// Rotation applied to the second component.
        rotation: Rotation,
        /// Translation applied after the rotation.
        translation: Coord,
    },
}

/// A scheduled interaction: an unordered pair of node-ports plus the geometric reason it
/// is permissible. Produced by [`World::permissibility`] or a scheduler and consumed by
/// [`World::apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interaction {
    /// First participant.
    pub a: NodeId,
    /// Port of the first participant.
    pub pa: Dir,
    /// Second participant.
    pub b: NodeId,
    /// Port of the second participant.
    pub pb: Dir,
    /// Why the pair may interact.
    pub permissibility: Permissibility,
}

/// The effect an applied interaction had on the configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InteractionOutcome {
    /// Whether the interaction was effective (changed a state or the bond).
    pub effective: bool,
    /// Whether a bond was activated.
    pub bond_activated: bool,
    /// Whether a bond was deactivated.
    pub bond_deactivated: bool,
    /// Whether two components merged.
    pub merged: bool,
    /// Whether a component split in two.
    pub split: bool,
}

/// The geometry of one node: the peer bonded at each port, and the node's pose in
/// its component's frame. Kept in one 64-byte record because the pair index reads
/// both for every node it re-derives: one cache line per node on that path instead
/// of one per array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C, align(64))]
pub(crate) struct NodeGeo {
    /// Per port: the bonded peer and its port (`None` while the bond is inactive).
    pub(crate) links: [Option<(NodeId, Dir)>; 6],
    /// The node's placement in its component's frame.
    pub(crate) pl: Placement,
}

const _: () = assert!(std::mem::size_of::<NodeGeo>() == 64);

impl NodeGeo {
    /// A free node: no bonds, at the origin of its own frame.
    const FREE: NodeGeo = NodeGeo {
        links: [None; 6],
        pl: Placement::origin(),
    };
}

/// A configuration `(C_V, C_E)` of the model together with the rigid embedding of every
/// connected component, for a fixed protocol.
///
/// `World<P>` is `Send` but not `Sync`: the lazily built pair index and the fallback
/// counter sit in `RefCell`/`Cell`s, so the read-side queries (`is_stable`, sampling)
/// can build the index behind `&self`. A world moves between threads (the service
/// hands jobs to its workers) but is never shared between them.
pub struct World<P: Protocol> {
    protocol: P,
    dim: Dim,
    states: Vec<P::State>,
    /// Per node: its bonds and its pose, one cache line each.
    geo: Vec<NodeGeo>,
    comp_of: Vec<usize>,
    components: Vec<Option<Component>>,
    bond_count: usize,
    rotations: Vec<Rotation>,
    /// Cached `protocol.is_halted(state)` per node, kept in sync with every state write.
    halted: Vec<bool>,
    /// Number of `true` entries of `halted`, maintained at every write so the halting
    /// predicates are `O(1)` per step.
    halted_count: usize,
    /// Monotone configuration version: bumped on every observable change so samplers
    /// can cache derived structures and invalidate them precisely. It starts at a
    /// process-unique base (see [`World::new`]), so versions of two worlds never
    /// collide — a scheduler driven against several worlds cannot replay a cached
    /// structure into the wrong one.
    version: u64,
    /// Exhaustive fallback scans run by the stability queries (see [`IndexStats`]).
    fallback_scans: Cell<u64>,
    /// The incremental permissible-pair index (exact pair counts for the jump sampler
    /// and the stability queries). Lazily activated.
    pairs: RefCell<PairCell<P::State>>,
    /// Nodes to re-derive in the pair index, queued by a mutation and drained by the
    /// [`World::flush_pairs`] that ends it — so it is empty between public calls.
    pair_pending: Vec<NodeId>,
    /// Mirror of `pairs.mode == Active`, readable without a borrow on the mutation hot
    /// path.
    pairs_active: Cell<bool>,
    /// `Σ |component|²` over live components, maintained O(1) per merge/split; gives
    /// the cross-component node-pair universe `(n² − Σsz²)/2` without enumeration.
    sum_sq_sizes: u64,
    /// Number of live components, maintained O(1) per merge/split.
    live_components: usize,
    /// Scratch visit marks for the split-detection BFS, stamped with
    /// `scratch_epoch` (avoids an O(n) allocation per bond deactivation).
    scratch_stamp: Vec<u64>,
    scratch_epoch: u64,
    /// The telemetry handle (disabled by default — every hook is an early return).
    obs: Telemetry,
}

impl<P: Protocol> World<P> {
    /// Creates the initial configuration on `n` nodes: every node free (a singleton
    /// component), in its protocol-defined initial state, with all bonds inactive.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(protocol: P, n: usize) -> World<P> {
        assert!(n > 0, "the population must contain at least one node");
        let dim = protocol.dim();
        let states: Vec<P::State> = (0..n)
            .map(|i| protocol.initial_state(NodeId::new(i as u32), n))
            .collect();
        let halted: Vec<bool> = states.iter().map(|s| protocol.is_halted(s)).collect();
        let halted_count = halted.iter().filter(|&&h| h).count();
        let components = (0..n)
            .map(|i| Some(Component::singleton(NodeId::new(i as u32))))
            .collect();
        // Disjoint per-world version ranges: each world claims a 2⁴⁰-wide window, far
        // beyond any realistic number of configuration changes.
        let version = crate::lock::next_world_ordinal() << 40;
        World {
            rotations: Rotation::all(dim),
            protocol,
            dim,
            states,
            geo: vec![NodeGeo::FREE; n],
            comp_of: (0..n).collect(),
            components,
            bond_count: 0,
            halted,
            halted_count,
            version,
            fallback_scans: Cell::new(0),
            pairs: RefCell::new(PairCell {
                mode: PairMode::Disabled,
                index: PairIndex::new(),
            }),
            pair_pending: Vec::new(),
            pairs_active: Cell::new(false),
            sum_sq_sizes: n as u64,
            live_components: n,
            scratch_stamp: vec![0; n],
            scratch_epoch: 0,
            obs: Telemetry::disabled(),
        }
    }

    /// Alias of [`World::new`], kept for callers that record a shard count. The
    /// count is ignored: there is one pair-index layout, and [`crate::SimulationConfig`]
    /// only records `shards` in its snapshots.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_shards(protocol: P, n: usize, _shards: usize) -> World<P> {
        World::new(protocol, n)
    }

    /// Attaches a telemetry handle: subsequent merges/splits, index flushes and
    /// class-table changes emit step-indexed trace events into it, and the flush
    /// phase is timed. Pass [`Telemetry::disabled`] (the construction
    /// default) to turn all hooks back into early returns. Telemetry never touches
    /// the trajectory and is not persisted in snapshots.
    pub fn set_telemetry(&mut self, obs: Telemetry) {
        self.pairs.get_mut().index.set_telemetry(obs.clone());
        self.obs = obs;
    }

    /// The attached telemetry handle (disabled unless [`World::set_telemetry`] was
    /// called).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.obs
    }

    /// Re-derives the halted flag of `node` from its current state, keeping
    /// `halted_count` in step.
    fn refresh_halted(&mut self, node: usize) {
        let halted = self.protocol.is_halted(&self.states[node]);
        let was = std::mem::replace(&mut self.halted[node], halted);
        self.halted_count = self.halted_count + usize::from(halted) - usize::from(was);
    }

    /// A monotone configuration version: bumped on every observable change (state write,
    /// bond flip, merge, split). Samplers use it to cache derived structures — e.g. the
    /// enumerated permissible set — and invalidate them precisely.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Work counters of the stability oracle (exhaustive fallback scans).
    #[must_use]
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            node_scans: self.fallback_scans.get(),
        }
    }

    /// The class table's row-fill work counters (test-only, so in no report).
    #[cfg(test)]
    pub(crate) fn fill_stats(&self) -> crate::index::FillStats {
        self.pairs.borrow().index.fill_stats()
    }

    /// The population size `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the population is empty (never true: constructors require `n ≥ 1`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The dimensionality of the model.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// The protocol driving this world.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current state of `node`.
    ///
    /// # Panics
    /// Panics if `node` is outside the population.
    #[must_use]
    pub fn state(&self, node: NodeId) -> &P::State {
        &self.states[node.index()]
    }

    /// Overrides the state of `node`. Intended for test setups and for composing phased
    /// protocols that hand over a configuration.
    ///
    /// # Panics
    /// Panics if `node` is outside the population.
    pub fn set_state(&mut self, node: NodeId, state: P::State) {
        self.states[node.index()] = state;
        self.refresh_halted(node.index());
        self.version += 1;
        self.pair_touch(node);
        self.flush_pairs();
    }

    /// Iterates over all node states in node order.
    pub fn states(&self) -> impl Iterator<Item = &P::State> {
        self.states.iter()
    }

    /// All node states as a slice, in node order (used by the population-protocol
    /// wrapper, whose predicates are written against the state vector).
    #[must_use]
    pub fn state_slice(&self) -> &[P::State] {
        &self.states
    }

    /// All node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId::new)
    }

    /// Number of active bonds in the configuration.
    #[must_use]
    pub fn bond_count(&self) -> usize {
        self.bond_count
    }

    /// The peer currently bonded to `node`'s port `port`, if any.
    #[must_use]
    pub fn bonded_peer(&self, node: NodeId, port: Dir) -> Option<(NodeId, Dir)> {
        self.geo[node.index()].links[port.index()]
    }

    /// The placement of `node` within its component's frame.
    #[must_use]
    pub fn placement(&self, node: NodeId) -> Placement {
        self.geo[node.index()].pl
    }

    /// The identifier of the component containing `node`.
    #[must_use]
    pub fn component_id(&self, node: NodeId) -> usize {
        self.comp_of[node.index()]
    }

    /// The component containing `node`.
    #[must_use]
    pub fn component(&self, node: NodeId) -> &Component {
        self.components[self.comp_of[node.index()]]
            .as_ref()
            .expect("component slot of a live node must be occupied")
    }

    /// Number of connected components (free nodes count as singleton components).
    /// O(1): the count is maintained across merges and splits.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.live_components
    }

    /// The number of unordered node pairs spanning two different components — the
    /// candidate universe of cross-component interactions. O(1): derived from the
    /// maintained `Σ |component|²`.
    #[must_use]
    pub fn cross_component_universe(&self) -> u64 {
        let n = self.len() as u64;
        (n * n - self.sum_sq_sizes) / 2
    }

    /// Decides whether the unordered pair of node-ports may interact in the current
    /// configuration and, if so, why.
    ///
    /// Returns `None` when the pair is not permissible (same node, port outside the
    /// dimension, non-aligned ports of one component, or unavoidable overlap between the
    /// two components).
    #[must_use]
    pub fn permissibility(&self, a: NodeId, pa: Dir, b: NodeId, pb: Dir) -> Option<Permissibility> {
        if a == b || !self.dim.contains(pa) || !self.dim.contains(pb) {
            return None;
        }
        if a.index() >= self.len() || b.index() >= self.len() {
            return None;
        }
        if self.geo[a.index()].links[pa.index()] == Some((b, pb)) {
            return Some(Permissibility::Bonded);
        }
        let pl_a = self.geo[a.index()].pl;
        let pl_b = self.geo[b.index()].pl;
        let ga = pl_a.rot.apply_dir(pa);
        if self.comp_of[a.index()] == self.comp_of[b.index()] {
            // Same component: the ports must already face each other at unit distance.
            let aligned =
                pl_b.pos == pl_a.pos + ga.unit() && pl_b.rot.apply_dir(pb) == ga.opposite();
            return aligned.then_some(Permissibility::SameComponentAdjacent);
        }
        // Different components: try to place b's component so the ports face each other.
        let comp_a = self.component(a);
        let comp_b = self.component(b);
        let target = pl_a.pos + ga.unit();
        if comp_a.is_occupied(target) {
            return None;
        }
        let from = pl_b.rot.apply_dir(pb);
        let to = ga.opposite();
        for &rotation in &self.rotations {
            if rotation.apply_dir(from) != to {
                continue;
            }
            let translation = target - rotation.apply_coord(pl_b.pos);
            // Overlap is symmetric, so scan the cells of the *smaller* component against
            // the occupancy of the larger one: a cell `c` of `a`'s component collides
            // iff `b`'s component occupies `R⁻¹(c − t)`. A singleton `b` needs no scan:
            // its one cell lands on `target`, found free above. The cells are read from
            // the members' placements, which skips the empty cells of a dense grid.
            let pos = |m: &NodeId| self.geo[m.index()].pl.pos;
            let collision = if comp_b.len() == 1 {
                false
            } else if comp_b.len() <= comp_a.len() {
                comp_b
                    .members()
                    .iter()
                    .any(|m| comp_a.is_occupied(rotation.apply_coord(pos(m)) + translation))
            } else {
                let inverse = rotation.inverse();
                comp_a
                    .members()
                    .iter()
                    .any(|m| comp_b.is_occupied(inverse.apply_coord(pos(m) - translation)))
            };
            if !collision {
                return Some(Permissibility::Merge {
                    rotation,
                    translation,
                });
            }
        }
        None
    }

    /// Convenience wrapper building an [`Interaction`] when the pair is permissible.
    #[must_use]
    pub fn interaction(&self, a: NodeId, pa: Dir, b: NodeId, pb: Dir) -> Option<Interaction> {
        self.permissibility(a, pa, b, pb)
            .map(|permissibility| Interaction {
                a,
                pa,
                b,
                pb,
                permissibility,
            })
    }

    /// Applies a (currently permissible) interaction: consults the protocol's transition
    /// function — in both orders, since pairs are unordered — and updates states, bonds
    /// and component embeddings accordingly.
    ///
    /// Interactions involving a halted participant are ineffective by definition.
    pub fn apply(&mut self, interaction: &Interaction) -> InteractionOutcome {
        let Interaction {
            a,
            pa,
            b,
            pb,
            permissibility,
        } = *interaction;
        let mut outcome = InteractionOutcome::default();
        if self.halted[a.index()] || self.halted[b.index()] {
            return outcome;
        }
        let bonded = matches!(permissibility, Permissibility::Bonded);
        let sa = &self.states[a.index()];
        let sb = &self.states[b.index()];
        let attempt = self
            .protocol
            .transition(sa, pa, sb, pb, bonded)
            .map(|t| (t, false))
            .or_else(|| {
                self.protocol
                    .transition(sb, pb, sa, pa, bonded)
                    .map(|t| (t, true))
            });
        let Some((transition, swapped)) = attempt else {
            return outcome;
        };
        let (new_a, new_b) = if swapped {
            (transition.b, transition.a)
        } else {
            (transition.a, transition.b)
        };
        outcome.effective = new_a != self.states[a.index()]
            || new_b != self.states[b.index()]
            || transition.bond != bonded;
        self.states[a.index()] = new_a;
        self.states[b.index()] = new_b;
        match (bonded, transition.bond) {
            (true, true) | (false, false) => {}
            (true, false) => {
                self.deactivate_bond(a, pa, b, pb, &mut outcome);
            }
            (false, true) => {
                if let Permissibility::Merge {
                    rotation,
                    translation,
                } = permissibility
                {
                    self.merge_components(a, b, rotation, translation);
                    outcome.merged = true;
                }
                self.geo[a.index()].links[pa.index()] = Some((b, pb));
                self.geo[b.index()].links[pb.index()] = Some((a, pa));
                self.bond_count += 1;
                outcome.bond_activated = true;
            }
        }
        if outcome.merged || outcome.split {
            // Stamped with the smaller participant's canonical lane.
            let lane = trace_lane(a.min(b), self.len());
            if outcome.merged {
                self.obs.trace(lane, TraceEventKind::Merge);
            }
            if outcome.split {
                self.obs.trace(lane, TraceEventKind::Split);
            }
        }
        if outcome.effective {
            self.refresh_halted(a.index());
            self.refresh_halted(b.index());
            self.version += 1;
            self.pair_touch(a);
            self.pair_touch(b);
            self.flush_pairs();
        }
        outcome
    }

    /// Merges the components of `a` and `b`, where `(rotation, translation)` maps `b`'s
    /// component frame into `a`'s. The *smaller* component is the one physically moved
    /// (re-embedded), which bounds the total re-embedding work of an execution by
    /// `O(n log n)` node moves; frames are arbitrary (the solution is well mixed), so
    /// permissibility and transitions are unaffected by which frame survives.
    fn merge_components(&mut self, a: NodeId, b: NodeId, rotation: Rotation, translation: Coord) {
        let comp_a_id = self.comp_of[a.index()];
        let comp_b_id = self.comp_of[b.index()];
        debug_assert_ne!(comp_a_id, comp_b_id);
        let len = |c: &Option<Component>| c.as_ref().map_or(0, Component::len);
        let (absorbed_id, surviving_id, rotation, translation) =
            if len(&self.components[comp_b_id]) <= len(&self.components[comp_a_id]) {
                (comp_b_id, comp_a_id, rotation, translation)
            } else {
                // Move `a`'s side instead, through the inverse rigid motion:
                // x_B = R⁻¹·x_A − R⁻¹·t.
                let inverse = rotation.inverse();
                let translation = Coord::ORIGIN - inverse.apply_coord(translation);
                (comp_a_id, comp_b_id, inverse, translation)
            };
        let absorbed = self.components[absorbed_id]
            .take()
            .expect("component slot of a live node must be occupied");
        let surviving = self.components[surviving_id]
            .as_mut()
            .expect("component slot of a live node must be occupied");
        let absorbed_len = absorbed.len() as u64;
        let surviving_len = surviving.len() as u64;
        // Walk the absorbed members in their membership-vector order, not the
        // occupancy's cell order: the surviving `members` push order is
        // sampler-visible through cross-pair enumeration, and the membership vector —
        // unlike the occupancy — is part of the serialized configuration, so a resumed
        // run reproduces this walk exactly.
        for &node in absorbed.members() {
            let pos = self.geo[node.index()].pl.pos;
            let new_pos = rotation.apply_coord(pos) + translation;
            let placement = &mut self.geo[node.index()].pl;
            placement.pos = new_pos;
            placement.rot = rotation.compose(placement.rot);
            self.comp_of[node.index()] = surviving_id;
            surviving.insert(node, new_pos);
        }
        // Component-size bookkeeping: (a+b)² replaces a² + b².
        self.sum_sq_sizes += 2 * absorbed_len * surviving_len;
        self.live_components -= 1;
        if self.pairs_active.get() {
            // The moved nodes must be re-derived (new component, new adjacency, new
            // free-port flags), and so must the *unmoved* neighbours of every inserted
            // cell — their ports just got blocked, which is exactly the non-local
            // removal a grown component can cause in the singleton cross classes. A
            // second walk of the absorbed members, in the same order, reads their new
            // cells back from their placements.
            let surviving = self.components[surviving_id]
                .as_ref()
                .expect("component slot of a live node must be occupied");
            for &node in absorbed.members() {
                let new_pos = self.geo[node.index()].pl.pos;
                self.pair_pending.push(node);
                for &d in self.dim.dirs() {
                    if let Some(neighbour) = surviving.node_at(new_pos + d.unit()) {
                        self.pair_pending.push(neighbour);
                    }
                }
            }
        }
    }

    fn deactivate_bond(
        &mut self,
        a: NodeId,
        pa: Dir,
        b: NodeId,
        pb: Dir,
        outcome: &mut InteractionOutcome,
    ) {
        debug_assert_eq!(self.geo[a.index()].links[pa.index()], Some((b, pb)));
        self.geo[a.index()].links[pa.index()] = None;
        self.geo[b.index()].links[pb.index()] = None;
        self.bond_count -= 1;
        outcome.bond_deactivated = true;
        // The component may have split: collect everything still reachable from `a`.
        // The visited marks live in an epoch-stamped scratch buffer on the world, so a
        // bond flip costs O(component traversed), not an O(n) allocation.
        let comp_id = self.comp_of[a.index()];
        self.scratch_epoch += 1;
        let epoch = self.scratch_epoch;
        let reached = |scratch: &[u64], node: NodeId| scratch[node.index()] == epoch;
        self.scratch_stamp[a.index()] = epoch;
        let mut queue = VecDeque::from([a]);
        let mut reached_b = false;
        while let Some(node) = queue.pop_front() {
            if node == b {
                reached_b = true;
                break;
            }
            for (peer, _) in self.geo[node.index()].links.iter().flatten() {
                if !reached(&self.scratch_stamp, *peer) {
                    self.scratch_stamp[peer.index()] = epoch;
                    queue.push_back(*peer);
                }
            }
        }
        if reached_b {
            return;
        }
        // Split: the stamped nodes are exactly `a`'s side; move everything else (i.e.
        // `b`'s side) of the old component into a new component.
        outcome.split = true;
        let old_members: Vec<NodeId> = self.components[comp_id]
            .as_ref()
            .expect("component slot of a live node must be occupied")
            .members()
            .to_vec();
        let old_len = old_members.len() as u64;
        let new_comp_id = self.allocate_component_slot();
        let mut new_comp = Component::empty();
        for node in old_members {
            // Both halves shrank, which can unlock merge placements for every old
            // member: re-derive them all.
            self.pair_touch(node);
            if self.comp_of[node.index()] == comp_id && !reached(&self.scratch_stamp, node) {
                let pos = self.geo[node.index()].pl.pos;
                self.components[comp_id]
                    .as_mut()
                    .expect("component slot of a live node must be occupied")
                    .remove(node, pos);
                new_comp.insert(node, pos);
                self.comp_of[node.index()] = new_comp_id;
            }
        }
        debug_assert!(!new_comp.is_empty());
        // Component-size bookkeeping: a² + b² replaces (a+b)².
        let split_len = new_comp.len() as u64;
        self.sum_sq_sizes -= 2 * split_len * (old_len - split_len);
        self.live_components += 1;
        self.components[new_comp_id] = Some(new_comp);
    }

    fn allocate_component_slot(&mut self) -> usize {
        if let Some(idx) = self.components.iter().position(Option::is_none) {
            idx
        } else {
            self.components.push(None);
            self.components.len() - 1
        }
    }

    /// Activates the bond between two node-ports *without consulting the protocol*,
    /// merging components as needed. Intended for setting up initial configurations
    /// (pre-built seed lines, the input shape of the self-replication protocols) and for
    /// handing configurations between sequentially composed phases.
    ///
    /// # Errors
    /// Returns [`crate::CoreError::PopulationTooSmall`] never; returns
    /// [`crate::CoreError::UnknownNode`] if a node is out of range and
    /// [`crate::CoreError::InvalidPort`] if the pair is not geometrically permissible or
    /// is already bonded.
    pub fn setup_bond(&mut self, a: NodeId, pa: Dir, b: NodeId, pb: Dir) -> crate::Result<()> {
        if a.index() >= self.len() {
            return Err(crate::CoreError::UnknownNode(a));
        }
        if b.index() >= self.len() {
            return Err(crate::CoreError::UnknownNode(b));
        }
        match self.permissibility(a, pa, b, pb) {
            Some(Permissibility::Merge {
                rotation,
                translation,
            }) => {
                self.merge_components(a, b, rotation, translation);
            }
            Some(Permissibility::SameComponentAdjacent) => {}
            Some(Permissibility::Bonded) | None => {
                return Err(crate::CoreError::InvalidPort {
                    node: a,
                    port: pa.short_name(),
                });
            }
        }
        self.geo[a.index()].links[pa.index()] = Some((b, pb));
        self.geo[b.index()].links[pb.index()] = Some((a, pa));
        self.bond_count += 1;
        self.version += 1;
        self.pair_touch(a);
        self.pair_touch(b);
        self.flush_pairs();
        Ok(())
    }

    /// Decides whether the (unordered) node-port pair is both permissible and
    /// *effective* — applying it would change a state or the bond — and returns the
    /// ready-to-apply [`Interaction`] if so. Identity transitions count as ineffective.
    #[must_use]
    pub fn effective_interaction_at(
        &self,
        a: NodeId,
        pa: Dir,
        b: NodeId,
        pb: Dir,
    ) -> Option<Interaction> {
        if self.halted[a.index()] || self.halted[b.index()] {
            return None;
        }
        let permissibility = self.permissibility(a, pa, b, pb)?;
        let bonded = matches!(permissibility, Permissibility::Bonded);
        let sa = &self.states[a.index()];
        let sb = &self.states[b.index()];
        let effective = transition_effective(&self.protocol, sa, pa, sb, pb, bonded);
        effective.then_some(Interaction {
            a,
            pa,
            b,
            pb,
            permissibility,
        })
    }

    /// Finds an effective permissible interaction: the first pair of the pair index's
    /// canonical effective walk (a function of the configuration alone), else the first effective multi×multi cross pair. Builds
    /// the pair index on first use. Falls back to the exhaustive scan — counted in
    /// [`World::index_stats`] — only on class-table overflow or when the multi×multi
    /// universe exceeds its enumeration budget.
    #[must_use]
    pub fn find_effective_interaction(&self) -> Option<Interaction> {
        if let Some(summary) = self.aggregate_pair_counts() {
            if summary.effective_base > 0 {
                return Some(self.sample_effective_base(0));
            }
            if let Some(pairs) = self.enumerate_cross_multi(self.cross_multi_budget()) {
                return pairs
                    .into_iter()
                    .find_map(|(i, effective)| effective.then_some(i));
            }
        }
        self.fallback_scans.set(self.fallback_scans.get() + 1);
        self.find_effective_interaction_scan()
    }

    /// The exhaustive full scan: `O(n² · ports²)`. The fallback of
    /// [`World::find_effective_interaction`] and the reference the equivalence and
    /// property suites validate the indexed path against.
    #[must_use]
    pub fn find_effective_interaction_scan(&self) -> Option<Interaction> {
        let ports = self.dim.dirs();
        for ai in 0..self.len() {
            let a = NodeId::new(ai as u32);
            for bi in (ai + 1)..self.len() {
                let b = NodeId::new(bi as u32);
                for &pa in ports {
                    for &pb in ports {
                        if let Some(found) = self.effective_interaction_at(a, pa, b, pb) {
                            return Some(found);
                        }
                    }
                }
            }
        }
        None
    }

    /// Enumerates **exactly** the permissible node-port pairs of the configuration, one
    /// entry per unordered pair, or `None` when the cross-component part would exceed
    /// `cross_budget` node-pair checks (the caller then falls back to rejection
    /// sampling, which is cheap precisely when the permissible set is large).
    ///
    /// Cost: `O(n · ports)` for the bonded and same-component-adjacent parts plus
    /// `O(Σ_{A≠B} |A|·|B| · ports²)` for the cross-component part (bounded by
    /// `cross_budget · ports²` permissibility checks).
    #[must_use]
    pub fn enumerate_permissible(&self, cross_budget: usize) -> Option<Vec<Interaction>> {
        let ports = self.dim.dirs();
        let mut out = Vec::new();
        // Bonded pairs and same-component facing adjacencies: O(n · ports).
        for ai in 0..self.len() {
            let a = NodeId::new(ai as u32);
            let pl_a = self.geo[ai].pl;
            for &pa in ports {
                if let Some((b, pb)) = self.geo[ai].links[pa.index()] {
                    if (ai, pa.index()) < (b.index(), pb.index()) {
                        out.push(Interaction {
                            a,
                            pa,
                            b,
                            pb,
                            permissibility: Permissibility::Bonded,
                        });
                    }
                    continue;
                }
                let facing = pl_a.rot.apply_dir(pa);
                let target = pl_a.pos + facing.unit();
                if let Some(b) = self.component(a).node_at(target) {
                    let pb = self.geo[b.index()]
                        .pl
                        .rot
                        .inverse()
                        .apply_dir(facing.opposite());
                    if (ai, pa.index()) < (b.index(), pb.index()) {
                        out.push(Interaction {
                            a,
                            pa,
                            b,
                            pb,
                            permissibility: Permissibility::SameComponentAdjacent,
                        });
                    }
                }
            }
        }
        // Cross-component pairs. The budget check is O(1) from the maintained
        // component-size bookkeeping instead of an O(components²) size sweep.
        if self.cross_component_universe() > cross_budget as u64 {
            return None;
        }
        let live: Vec<usize> = (0..self.components.len())
            .filter(|&i| self.components[i].is_some())
            .collect();
        for (i, &ca) in live.iter().enumerate() {
            for &cb in live.iter().skip(i + 1) {
                let comp_a = self.components[ca].as_ref().expect("live slot");
                let comp_b = self.components[cb].as_ref().expect("live slot");
                for &a in comp_a.members() {
                    for &b in comp_b.members() {
                        for &pa in ports {
                            for &pb in ports {
                                if let Some(permissibility) = self.permissibility(a, pa, b, pb) {
                                    out.push(Interaction {
                                        a,
                                        pa,
                                        b,
                                        pb,
                                        permissibility,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        Some(out)
    }

    /// Queues `node` for re-derivation in the permissible-pair index (no-op while the
    /// index is inactive).
    fn pair_touch(&mut self, node: NodeId) {
        if self.pairs_active.get() {
            self.pair_pending.push(node);
        }
    }

    /// The read-only geometry view the pair index derives entries from.
    fn geom_view(&self) -> GeomView<'_, P::State> {
        GeomView {
            dim: self.dim,
            states: &self.states,
            halted: &self.halted,
            comp_of: &self.comp_of,
            components: &self.components,
            geo: &self.geo,
        }
    }

    /// Re-derives the queued nodes in the permissible-pair index, at the end of every
    /// mutation. A queued node costs one occupancy lookup per unbonded port, a class
    /// check (the `O(classes)` scan only when its state left its class), and per
    /// flipped registration a rate update over the member masks, plus a row fill per
    /// class whose row the flip newly needs; it reads one [`NodeGeo`] and writes one
    /// 32-byte index record (and its peers'). The batch is sorted (ascending node id,
    /// the canonical order that makes class allocation a function of the
    /// configuration), deduplicated and handed to the index.
    fn flush_pairs(&mut self) {
        if !self.pairs_active.get() || self.pair_pending.is_empty() {
            return;
        }
        self.pair_pending.sort_unstable();
        self.pair_pending.dedup();
        let pending = &self.pair_pending;
        let mut timer = self.obs.phase(Phase::Flush);
        timer.add_units(pending.len() as u64);
        self.obs.trace(
            trace_lane(pending[0], self.len()),
            TraceEventKind::IndexFlush {
                touched: pending.len() as u32,
            },
        );
        let mut cell = self.pairs.borrow_mut();
        if cell
            .index
            .flush_batch(&self.geom_view(), &self.protocol, pending)
            .is_err()
        {
            cell.mode = PairMode::Overflowed;
            cell.index.clear();
            self.pairs_active.set(false);
        }
        self.pair_pending.clear();
    }

    /// Ensures the pair index is built and active, or reports why it cannot be
    /// (`false` ⇔ the protocol's live state diversity has overflowed the class table).
    fn ensure_pairs_active(&self, cell: &mut PairCell<P::State>) -> bool {
        match cell.mode {
            PairMode::Overflowed => false,
            PairMode::Active => true,
            PairMode::Disabled => {
                let view = self.geom_view();
                if cell.index.build(&view, &self.protocol).is_err() {
                    cell.mode = PairMode::Overflowed;
                    cell.index.clear();
                    return false;
                }
                cell.mode = PairMode::Active;
                self.pairs_active.set(true);
                true
            }
        }
    }

    /// Exact permissible/effective pair counts of the current configuration, excluding
    /// multi×multi cross-component pairs (see [`World::enumerate_cross_multi`]), from
    /// the incrementally maintained aggregate in `O(1)`. Activates (builds) the pair
    /// index on first use; returns `None` when the protocol's live state diversity has
    /// overflowed the index's class table.
    pub(crate) fn aggregate_pair_counts(&self) -> Option<PairSummary> {
        let mut cell = self.pairs.borrow_mut();
        if !self.ensure_pairs_active(&mut cell) {
            return None;
        }
        let counts = cell.index.aggregate_counts(self.dim);
        Some(PairSummary {
            permissible_base: counts.permissible,
            effective_base: counts.effective,
            multi_components: self.live_components - cell.index.singleton_count(),
        })
    }

    /// The `idx`-th effective base pair as a ready-to-apply [`Interaction`]; uniform
    /// over the effective base set when `idx` is uniform over `0..effective_base`, by
    /// the configuration-determined canonical cell walk. Must only be called right after
    /// [`World::aggregate_pair_counts`] on the same (frozen) configuration version.
    pub(crate) fn sample_effective_base(&self, idx: u64) -> Interaction {
        let cell = self.pairs.borrow();
        let (a, pa, b, pb) = cell.index.sample_effective(self.dim, idx);
        drop(cell);
        self.interaction(a, pa, b, pb)
            .expect("pair-index effective entry must be permissible")
    }

    /// The `idx`-th permissible base pair (uniform when `idx` is uniform over
    /// `0..permissible_base`). Same calling contract as
    /// [`World::sample_effective_base`].
    pub(crate) fn sample_permissible_base(&self, idx: u64) -> Interaction {
        let cell = self.pairs.borrow();
        let (a, pa, b, pb) = cell.index.sample_permissible(self.dim, idx);
        drop(cell);
        self.interaction(a, pa, b, pb)
            .expect("pair-index permissible entry must be permissible")
    }

    /// Validates the incremental permissible-pair index against the enumeration oracle:
    /// the class table must pass its self-check (masks, refcounts and bucket sizes
    /// against the stored registrations, every row of the cell walk equal to a fresh
    /// evaluation, and the running rates equal to their recount over those rows), the
    /// aggregate permissible total must equal the brute-force
    /// [`World::enumerate_permissible`] count, and the effective set the draws expand
    /// to must match the oracle's pair for pair and the aggregate in size. Activates
    /// the index if necessary.
    ///
    /// # Errors
    /// Returns a description of the first discrepancy. Intended for the equivalence
    /// suite; `O(n²·ports²)` — do not call on hot paths.
    pub fn validate_pair_index(&self) -> Result<(), String> {
        let Some(summary) = self.aggregate_pair_counts() else {
            return Err("pair index overflowed its class table".to_string());
        };
        // The class table first: a stale row, mask or rate is the cause of the count
        // drift the next checks would report.
        self.pairs
            .borrow()
            .index
            .check_classes(&self.protocol, self.dim)?;
        let mm = self
            .enumerate_cross_multi(u64::MAX)
            .expect("unbounded enumeration cannot be refused");
        let oracle = self
            .enumerate_permissible(usize::MAX)
            .expect("unbounded enumeration cannot be refused");
        let index_permissible = summary.permissible_base + mm.len() as u64;
        if index_permissible != oracle.len() as u64 {
            return Err(format!(
                "permissible count mismatch: index {index_permissible}, oracle {}",
                oracle.len()
            ));
        }
        let mut oracle_eff: Vec<u64> = oracle
            .iter()
            .filter(|i| {
                self.effective_interaction_at(i.a, i.pa, i.b, i.pb)
                    .is_some()
            })
            .map(|i| crate::index::pair_key(i.a, i.pa, i.b, i.pb))
            .collect();
        let mut index_eff: Vec<u64> = {
            let cell = self.pairs.borrow();
            cell.index.collect_effective(self.dim)
        };
        index_eff.extend(
            mm.iter()
                .filter(|(_, eff)| *eff)
                .map(|(i, _)| crate::index::pair_key(i.a, i.pa, i.b, i.pb)),
        );
        let index_eff_count = index_eff.len() as u64;
        let mm_eff = mm.iter().filter(|(_, eff)| *eff).count() as u64;
        if summary.effective_base + mm_eff != index_eff_count {
            return Err(format!(
                "effective count/set mismatch inside the index: counted {}, expanded {index_eff_count}",
                summary.effective_base + mm_eff
            ));
        }
        oracle_eff.sort_unstable();
        index_eff.sort_unstable();
        if oracle_eff != index_eff {
            return Err(format!(
                "effective set mismatch: index has {} pairs, oracle {}",
                index_eff.len(),
                oracle_eff.len()
            ));
        }
        Ok(())
    }

    /// Whether the configuration is stable: no permissible interaction is effective, so
    /// the configuration (and in particular its output shape) can never change again.
    ///
    /// The answer comes from the permissible-pair index (built on first use, in any
    /// sampling mode): its incrementally maintained effective count in `O(1)`, plus
    /// the multi×multi cross pairs enumerated under the cross budget when the base
    /// classes are quiescent. Only on class-table overflow or an over-budget
    /// multi×multi universe does the exhaustive scan answer (counted in
    /// [`World::index_stats`]).
    #[must_use]
    pub fn is_stable(&self) -> bool {
        if let Some(summary) = self.aggregate_pair_counts() {
            if summary.effective_base > 0 {
                return false;
            }
            // Base classes are quiescent; only multi×multi pairs could still act.
            if let Some(any) = self.any_effective_cross_multi(self.cross_multi_budget()) {
                return !any;
            }
        }
        self.fallback_scans.set(self.fallback_scans.get() + 1);
        self.is_stable_scan()
    }

    /// Stability through the exhaustive scan: `O(n² · ports²)`. The fallback of
    /// [`World::is_stable`], the reference the equivalence suite checks it against, and
    /// the faithful legacy execution path of [`crate::Simulation::run_until_stable`].
    #[must_use]
    pub fn is_stable_scan(&self) -> bool {
        self.find_effective_interaction_scan().is_none()
    }

    /// Whether every node is in a halted state (`O(1)`: backed by the maintained
    /// halted count).
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.halted_count == self.len()
    }

    /// Whether at least one node is in a halted state (`O(1)`: backed by the
    /// maintained halted count — suitable as a per-step predicate).
    #[must_use]
    pub fn any_halted(&self) -> bool {
        self.halted_count > 0
    }

    /// Nodes currently in a halted state.
    #[must_use]
    pub fn halted_nodes(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.halted[n.index()]).collect()
    }

    /// Checks internal consistency of the embedding: every bonded pair of nodes is in the
    /// same component, at unit distance, with ports facing each other, and no two nodes
    /// of a component occupy the same cell; every live component's occupancy holds
    /// exactly its members (no stale cells); the `O(1)`-maintained component and
    /// halted counts agree with a recount. Used by tests and debug assertions.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        for node in self.nodes() {
            let placement = self.geo[node.index()].pl;
            let comp_id = self.comp_of[node.index()];
            let comp = self.components[comp_id].as_ref();
            let Some(comp) = comp else {
                return false;
            };
            if comp.node_at(placement.pos) != Some(node) {
                return false;
            }
            for (idx, link) in self.geo[node.index()].links.iter().enumerate() {
                let Some((peer, peer_port)) = link else {
                    continue;
                };
                let port = Dir::from_index(idx);
                if !self.dim.contains(port) {
                    return false;
                }
                if self.comp_of[peer.index()] != comp_id {
                    return false;
                }
                if self.geo[peer.index()].links[peer_port.index()] != Some((node, port)) {
                    return false;
                }
                let peer_placement = self.geo[peer.index()].pl;
                let facing = placement.rot.apply_dir(port);
                if peer_placement.pos != placement.pos + facing.unit() {
                    return false;
                }
                if peer_placement.rot.apply_dir(*peer_port) != facing.opposite() {
                    return false;
                }
            }
        }
        // Every member sits at its cell (above), so a cell count equal to the member
        // count leaves no stale cell behind.
        if self
            .components
            .iter()
            .flatten()
            .any(|c| c.occupied_cells() != c.len())
        {
            return false;
        }
        // The O(1)-maintained component bookkeeping must agree with a recount.
        let live = self.components.iter().filter(|c| c.is_some()).count();
        if live != self.live_components {
            return false;
        }
        let sum_sq: u64 = self
            .components
            .iter()
            .flatten()
            .map(|c| (c.len() * c.len()) as u64)
            .sum();
        if sum_sq != self.sum_sq_sizes {
            return false;
        }
        self.halted.iter().filter(|&&h| h).count() == self.halted_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreError, Transition};

    #[test]
    fn trace_lanes_are_contiguous_id_ranges() {
        for n in [1usize, 3, 4, 16, 65] {
            for i in 0..n {
                let lane = trace_lane(NodeId::new(i as u32), n);
                assert!((lane as usize) < TRACE_LANES.min(n));
            }
        }
        let lanes: Vec<u32> = (0..16).map(|i| trace_lane(NodeId::new(i), 16)).collect();
        let mut sorted = lanes.clone();
        sorted.sort_unstable();
        assert_eq!(lanes, sorted);
        assert_eq!((lanes[0], lanes[3], lanes[4], lanes[15]), (0, 0, 1, 3));
    }

    /// A tiny protocol that bonds chains: a `Head` grabs a `Free` node through its right
    /// port (any port of the free node), making the grabbed node the new `Head`.
    struct Chain;

    #[derive(Clone, PartialEq, Debug)]
    enum C {
        Head,
        Body,
        Free,
    }

    impl Protocol for Chain {
        type State = C;

        fn initial_state(&self, node: NodeId, _n: usize) -> C {
            if node.index() == 0 {
                C::Head
            } else {
                C::Free
            }
        }

        fn transition(
            &self,
            a: &C,
            pa: Dir,
            b: &C,
            _pb: Dir,
            bonded: bool,
        ) -> Option<Transition<C>> {
            if !bonded && *a == C::Head && pa == Dir::Right && *b == C::Free {
                Some(Transition {
                    a: C::Body,
                    b: C::Head,
                    bond: true,
                })
            } else {
                None
            }
        }
    }

    impl crate::SnapshotProtocol for Chain {
        fn encode_state(&self, state: &C, out: &mut crate::SnapshotWriter) {
            out.u8(match state {
                C::Head => 0,
                C::Body => 1,
                C::Free => 2,
            });
        }

        fn decode_state(&self, r: &mut crate::SnapshotReader<'_>) -> crate::Result<C> {
            match r.u8()? {
                0 => Ok(C::Head),
                1 => Ok(C::Body),
                2 => Ok(C::Free),
                _ => Err(CoreError::SnapshotCorrupt {
                    what: "unknown chain state tag",
                }),
            }
        }
    }

    /// A hand-written world blob: two unbonded free `Chain` nodes that form one
    /// component, with its members at `x0` and `x1` on the x axis.
    fn two_member_world(x0: i32, x1: i32) -> crate::Result<World<Chain>> {
        let mut out = crate::SnapshotWriter::new();
        out.u8(2);
        out.u64(0); // bonds
        out.u64(4); // Σ |component|²
        out.u64(1); // live components
        out.u64(0); // reserved
        for x in [x0, x1] {
            out.u8(2); // C::Free
            out.i32(x);
            out.i32(0);
            out.i32(0);
            for axis in [Dir::Right, Dir::Up, Dir::ZPlus] {
                out.u8(axis.index() as u8);
            }
            out.u64(0); // component id
            for _ in 0..6 {
                out.u8(0);
            }
        }
        out.u64(1);
        out.u8(1);
        out.u64(2);
        out.u32(0);
        out.u32(1);
        out.u8(0); // pair index disabled
        let bytes = out.into_bytes();
        World::snapshot_decode(Chain, 2, &mut crate::SnapshotReader::new(&bytes))
    }

    #[test]
    fn decode_sizes_member_boxes_without_trusting_coordinates() {
        let near = two_member_world(-2, 3).expect("a plausible world decodes");
        let comp = near.component(NodeId::new(0));
        assert_eq!(comp.dense_cells(), Some(6), "one box over both members");
        assert_eq!(comp.node_at(Coord::new2(3, 0)), Some(NodeId::new(1)));
        assert!(near.check_invariants());

        // Far apart but within the coordinate bound: the sparse map, not a 2³¹-cell
        // grid.
        let far = two_member_world(-(1 << 30), 1 << 30).expect("decodes on the map");
        let comp = far.component(NodeId::new(1));
        assert_eq!(comp.dense_cells(), None);
        assert_eq!(
            comp.node_at(Coord::new2(-(1 << 30), 0)),
            Some(NodeId::new(0))
        );
        assert_eq!(comp.node_at(Coord::new2(1 << 30, 0)), Some(NodeId::new(1)));
        assert!(far.check_invariants());

        // At the ends of the `i32` range: rejected, typed.
        assert!(matches!(
            two_member_world(i32::MIN, i32::MAX),
            Err(CoreError::SnapshotCorrupt { .. })
        ));
        assert!(matches!(
            two_member_world(7, 7),
            Err(CoreError::SnapshotCorrupt {
                what: "two component members occupy one cell"
            })
        ));
    }

    #[test]
    fn initial_world() {
        let world = World::new(Chain, 4);
        assert_eq!(world.len(), 4);
        assert_eq!(world.component_count(), 4);
        assert_eq!(world.bond_count(), 0);
        assert_eq!(world.state(NodeId::new(0)), &C::Head);
        assert_eq!(world.state(NodeId::new(3)), &C::Free);
        assert!(world.check_invariants());
    }

    #[test]
    fn permissibility_of_free_nodes() {
        let world = World::new(Chain, 3);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        // Two free nodes may always interact (any ports).
        for &pa in Dim::Two.dirs() {
            for &pb in Dim::Two.dirs() {
                assert!(matches!(
                    world.permissibility(a, pa, b, pb),
                    Some(Permissibility::Merge { .. })
                ));
            }
        }
        // A node never interacts with itself, and z-ports are rejected in 2D.
        assert_eq!(world.permissibility(a, Dir::Up, a, Dir::Down), None);
        assert_eq!(world.permissibility(a, Dir::ZPlus, b, Dir::Up), None);
    }

    #[test]
    fn apply_merges_and_updates_states() {
        let mut world = World::new(Chain, 3);
        let head = NodeId::new(0);
        let free = NodeId::new(1);
        let interaction = world
            .interaction(head, Dir::Right, free, Dir::Left)
            .unwrap();
        let outcome = world.apply(&interaction);
        assert!(outcome.effective);
        assert!(outcome.bond_activated);
        assert!(outcome.merged);
        assert_eq!(world.bond_count(), 1);
        assert_eq!(world.component_count(), 2);
        assert_eq!(world.state(head), &C::Body);
        assert_eq!(world.state(free), &C::Head);
        assert!(world.check_invariants());
        // The grabbed node sits to the right of the old head in the component frame.
        assert_eq!(world.placement(free).pos, Coord::new2(1, 0));
    }

    #[test]
    fn versions_increase_on_every_change_and_never_rewind() {
        let mut world = World::new(Chain, 3);
        let v0 = world.version();
        world.set_state(NodeId::new(2), C::Body);
        let v1 = world.version();
        assert!(v1 > v0, "set_state bumps the version");
        let ineffective = world
            .interaction(NodeId::new(1), Dir::Up, NodeId::new(2), Dir::Up)
            .unwrap();
        assert!(!world.apply(&ineffective).effective);
        assert_eq!(world.version(), v1, "an ineffective apply changes nothing");
        let grab = world
            .interaction(NodeId::new(0), Dir::Right, NodeId::new(1), Dir::Left)
            .unwrap();
        assert!(world.apply(&grab).effective);
        assert!(world.version() > v1, "an effective apply bumps the version");
        let other = World::new(Chain, 3);
        assert_ne!(
            other.version() >> 40,
            world.version() >> 40,
            "disjoint windows"
        );
    }

    #[test]
    fn unordered_pair_is_tried_both_ways() {
        let mut world = World::new(Chain, 2);
        let head = NodeId::new(0);
        let free = NodeId::new(1);
        // Present the pair with the free node first: the engine must still find the rule.
        let interaction = world
            .interaction(free, Dir::Left, head, Dir::Right)
            .unwrap();
        let outcome = world.apply(&interaction);
        assert!(outcome.effective);
        assert_eq!(world.state(free), &C::Head);
        assert_eq!(world.state(head), &C::Body);
    }

    #[test]
    fn ineffective_interactions_change_nothing() {
        let mut world = World::new(Chain, 3);
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let interaction = world.interaction(a, Dir::Up, b, Dir::Up).unwrap();
        let outcome = world.apply(&interaction);
        assert!(!outcome.effective);
        assert_eq!(world.bond_count(), 0);
        assert_eq!(world.component_count(), 3);
    }

    #[test]
    fn chain_growth_is_geometric() {
        let mut world = World::new(Chain, 4);
        // Grow a chain 0-1-2-3 by always bonding the current head's right port to the
        // next free node's left port.
        for k in 1..4u32 {
            let head = NodeId::new(k - 1);
            let free = NodeId::new(k);
            let interaction = world
                .interaction(head, Dir::Right, free, Dir::Left)
                .unwrap();
            let outcome = world.apply(&interaction);
            assert!(outcome.effective);
        }
        assert_eq!(world.component_count(), 1);
        assert_eq!(world.bond_count(), 3);
        assert!(world.check_invariants());
        let shape = world.shape_of(NodeId::new(0), false);
        assert!(shape.is_line(4));
        // All permissible internal pairs are the bonded ones plus nothing else effective.
        assert!(world.is_stable());
    }

    #[test]
    fn collision_prevents_merge() {
        // Build a chain 0-1-2; nodes 3..5 stay free.
        let mut world = World::new(Chain, 6);
        for k in 1..3u32 {
            let i = world
                .interaction(NodeId::new(k - 1), Dir::Right, NodeId::new(k), Dir::Left)
                .unwrap();
            assert!(world.apply(&i).effective);
        }
        assert_eq!(world.component_count(), 4);
        // Node 0's Right port already faces the occupied cell of node 1, so no other
        // component can ever attach there.
        assert_eq!(
            world.permissibility(NodeId::new(0), Dir::Right, NodeId::new(3), Dir::Left),
            None
        );
        // Side bonding against a free cell is geometrically allowed (even though the
        // protocol would not make it effective).
        assert!(world
            .permissibility(NodeId::new(1), Dir::Up, NodeId::new(4), Dir::Down)
            .is_some());
        // A pair of nodes inside the chain that are not adjacent may not interact: no
        // elasticity, unlike the abstract Network Constructors model.
        assert_eq!(
            world.permissibility(NodeId::new(0), Dir::Right, NodeId::new(2), Dir::Left),
            None
        );
    }

    /// A protocol that first bonds two free nodes and later releases the bond.
    struct BondThenRelease;

    #[derive(Clone, PartialEq, Debug)]
    enum B {
        Fresh,
        Bonded,
        Released,
    }

    impl Protocol for BondThenRelease {
        type State = B;

        fn initial_state(&self, _node: NodeId, _n: usize) -> B {
            B::Fresh
        }

        fn transition(
            &self,
            a: &B,
            _pa: Dir,
            b: &B,
            _pb: Dir,
            bonded: bool,
        ) -> Option<Transition<B>> {
            match (a, b, bonded) {
                (B::Fresh, B::Fresh, false) => Some(Transition {
                    a: B::Bonded,
                    b: B::Bonded,
                    bond: true,
                }),
                (B::Bonded, B::Bonded, true) => Some(Transition {
                    a: B::Released,
                    b: B::Released,
                    bond: false,
                }),
                _ => None,
            }
        }
    }

    #[test]
    fn bond_deactivation_splits_component() {
        let mut world = World::new(BondThenRelease, 2);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let i = world.interaction(a, Dir::Right, b, Dir::Left).unwrap();
        assert!(world.apply(&i).merged);
        assert_eq!(world.component_count(), 1);
        let i = world.interaction(a, Dir::Right, b, Dir::Left).unwrap();
        assert_eq!(i.permissibility, Permissibility::Bonded);
        let outcome = world.apply(&i);
        assert!(outcome.bond_deactivated);
        assert!(outcome.split);
        assert_eq!(world.component_count(), 2);
        assert_eq!(world.bond_count(), 0);
        assert!(world.check_invariants());
        assert!(world.is_stable());
    }

    #[test]
    fn output_shape_filters_non_output_states() {
        struct OnlyHeadOutputs;
        impl Protocol for OnlyHeadOutputs {
            type State = C;
            fn initial_state(&self, node: NodeId, n: usize) -> C {
                Chain.initial_state(node, n)
            }
            fn transition(
                &self,
                a: &C,
                pa: Dir,
                b: &C,
                pb: Dir,
                bonded: bool,
            ) -> Option<Transition<C>> {
                Chain.transition(a, pa, b, pb, bonded)
            }
            fn is_output(&self, state: &C) -> bool {
                matches!(state, C::Head | C::Body)
            }
        }
        let mut world = World::new(OnlyHeadOutputs, 3);
        let i = world
            .interaction(NodeId::new(0), Dir::Right, NodeId::new(1), Dir::Left)
            .unwrap();
        world.apply(&i);
        // Node 2 is still Free (not an output state), so the output shape is the 2-chain.
        let shapes = world.output_shapes();
        assert_eq!(shapes.len(), 1);
        assert!(shapes[0].is_line(2));
        assert!(world.output_shape().is_line(2));
    }

    #[test]
    fn halted_nodes_do_not_interact() {
        struct HaltImmediately;
        impl Protocol for HaltImmediately {
            type State = bool; // true = halted
            fn initial_state(&self, node: NodeId, _n: usize) -> bool {
                node.index() == 0
            }
            fn transition(
                &self,
                _a: &bool,
                _pa: Dir,
                _b: &bool,
                _pb: Dir,
                _c: bool,
            ) -> Option<Transition<bool>> {
                Some(Transition {
                    a: true,
                    b: true,
                    bond: true,
                })
            }
            fn is_halted(&self, state: &bool) -> bool {
                *state
            }
        }
        let mut world = World::new(HaltImmediately, 2);
        let i = world
            .interaction(NodeId::new(0), Dir::Right, NodeId::new(1), Dir::Left)
            .unwrap();
        // Node 0 is halted, so the interaction must be ineffective.
        let outcome = world.apply(&i);
        assert!(!outcome.effective);
        assert_eq!(world.halted_nodes(), vec![NodeId::new(0)]);
        assert!(!world.all_halted());
    }
}
