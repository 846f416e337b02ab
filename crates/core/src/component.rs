//! Rigid connected components and their grid embeddings.

use crate::NodeId;
use nc_geometry::{Coord, Rotation};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, used as a *deterministic* hasher for component occupancy maps (and the
/// pair index's effectiveness memo).
///
/// No sampler-visible order depends on it: the pair index and the enumerations only
/// look cells up. The one iterator over an occupancy map is [`Component::iter`], whose
/// engine caller, `World::shape_of`, sorts what it collects. A fixed hash function
/// keeps that iteration order reproducible between runs, which `RandomState` would
/// not.
#[derive(Default)]
pub struct DeterministicHasher(u64);

impl Hasher for DeterministicHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }
}

/// Deterministic `BuildHasher` for occupancy maps.
pub type DeterministicState = BuildHasherDefault<DeterministicHasher>;

/// The pose of a node inside its component's frame: a grid position and the rotation
/// mapping the node's local port directions to component-frame directions.
///
/// A free node (singleton component) sits at the origin of its own frame with the
/// identity rotation; because the solution is well mixed, its *global* orientation is
/// irrelevant and is only fixed (relative to the other participant) at interaction time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Grid position in the component frame.
    pub pos: Coord,
    /// Rotation from the node's local frame to the component frame.
    pub rot: Rotation,
}

impl Placement {
    /// The placement of a freshly created free node.
    #[must_use]
    pub fn origin() -> Placement {
        Placement {
            pos: Coord::ORIGIN,
            rot: Rotation::IDENTITY,
        }
    }
}

impl Default for Placement {
    fn default() -> Self {
        Placement::origin()
    }
}

/// A connected component: the set of member nodes and the occupancy map of its frame.
///
/// The component does not store bonds — those live in the [`crate::World`]'s per-node
/// port tables — only which grid cell of the component frame each member occupies, which
/// is what the geometric permissibility checks need.
///
/// A component that has only ever held one node (every free node, and the lone node a
/// split cuts off) keeps that member inline as `(node, cell)` and allocates nothing;
/// the second [`Component::insert`] spills it into `members`/`occupied`, in that order,
/// ahead of the new node. A spilled component never goes back inline, even when
/// removals shrink it to one member, so multi-node components keep exactly the
/// membership order (sampler-visible: the cross-pair walks and snapshots follow it) and
/// occupancy-map growth they would have without the inline slot.
#[derive(Clone, Debug, Default)]
pub struct Component {
    /// The sole member of a never-spilled component (`members` is then unallocated).
    inline: Option<(NodeId, Coord)>,
    members: Vec<NodeId>,
    occupied: HashMap<Coord, NodeId, DeterministicState>,
}

impl Component {
    /// Creates a singleton component containing `node` at the origin of its frame.
    #[must_use]
    pub fn singleton(node: NodeId) -> Component {
        Component {
            inline: Some((node, Coord::ORIGIN)),
            ..Component::default()
        }
    }

    /// Creates an empty component (used when splitting).
    #[must_use]
    pub fn empty() -> Component {
        Component::default()
    }

    /// The member nodes (unsorted).
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        match &self.inline {
            Some((node, _)) => std::slice::from_ref(node),
            None => &self.members,
        }
    }

    /// Number of member nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// Whether the component has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node occupying `pos` in the component frame, if any.
    #[must_use]
    pub fn node_at(&self, pos: Coord) -> Option<NodeId> {
        match self.inline {
            Some((node, at)) => (at == pos).then_some(node),
            None => self.occupied.get(&pos).copied(),
        }
    }

    /// Whether `pos` is occupied in the component frame.
    #[must_use]
    pub fn is_occupied(&self, pos: Coord) -> bool {
        self.node_at(pos).is_some()
    }

    /// Adds a member at `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is already occupied (that would mean two nodes falling onto the
    /// same grid cell, which the model forbids).
    pub fn insert(&mut self, node: NodeId, pos: Coord) {
        match self.inline.take() {
            // Never spilled and empty: the first member stays inline.
            None if self.members.capacity() == 0 => {
                self.inline = Some((node, pos));
                return;
            }
            Some((first, at)) => {
                self.occupied.insert(at, first);
                self.members.push(first);
            }
            None => {}
        }
        let prev = self.occupied.insert(pos, node);
        assert!(prev.is_none(), "cell {pos} already occupied");
        self.members.push(node);
    }

    /// Removes a member (by value) located at `pos`.
    ///
    /// # Panics
    /// Panics if the node is not a member at that position.
    pub fn remove(&mut self, node: NodeId, pos: Coord) {
        if self.inline.is_some() {
            assert_eq!(
                self.inline,
                Some((node, pos)),
                "node {node} was not at {pos}"
            );
            self.inline = None;
            return;
        }
        let at = self.occupied.remove(&pos);
        assert_eq!(at, Some(node), "node {node} was not at {pos}");
        let idx = self
            .members
            .iter()
            .position(|&m| m == node)
            .expect("node must be a member");
        self.members.swap_remove(idx);
    }

    /// Iterates over `(node, position)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Coord)> + '_ {
        self.inline
            .into_iter()
            .chain(self.occupied.iter().map(|(&pos, &node)| (node, pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton() {
        let c = Component::singleton(NodeId::new(4));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        assert_eq!(c.node_at(Coord::ORIGIN), Some(NodeId::new(4)));
        assert!(c.is_occupied(Coord::ORIGIN));
        assert!(!c.is_occupied(Coord::new2(1, 0)));
    }

    #[test]
    fn insert_and_remove() {
        let mut c = Component::singleton(NodeId::new(0));
        c.insert(NodeId::new(1), Coord::new2(1, 0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.iter().count(), 2);
        c.remove(NodeId::new(0), Coord::ORIGIN);
        assert_eq!(c.len(), 1);
        assert_eq!(c.node_at(Coord::ORIGIN), None);
        assert_eq!(c.node_at(Coord::new2(1, 0)), Some(NodeId::new(1)));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_occupancy_panics() {
        let mut c = Component::singleton(NodeId::new(0));
        c.insert(NodeId::new(1), Coord::ORIGIN);
    }

    #[test]
    fn singleton_allocates_nothing() {
        let c = Component::singleton(NodeId::new(7));
        assert_eq!(c.members.capacity(), 0);
        assert_eq!(c.occupied.capacity(), 0);
        assert_eq!(c.members(), &[NodeId::new(7)]);
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            vec![(NodeId::new(7), Coord::ORIGIN)]
        );
    }

    #[test]
    fn second_insert_spills_the_inline_member_first() {
        let mut c = Component::empty();
        c.insert(NodeId::new(3), Coord::new2(2, -1));
        assert_eq!(c.members.capacity(), 0);
        assert_eq!(c.node_at(Coord::new2(2, -1)), Some(NodeId::new(3)));
        c.insert(NodeId::new(9), Coord::new2(2, 0));
        assert_eq!(c.members(), &[NodeId::new(3), NodeId::new(9)]);
        // Shrinking back to one member keeps the spilled representation.
        c.remove(NodeId::new(3), Coord::new2(2, -1));
        assert_eq!(c.members(), &[NodeId::new(9)]);
        assert!(c.inline.is_none());
    }

    /// Random inserts and removes against a `BTreeMap` model, through every 0↔1↔2
    /// member transition: inline singletons, spilled components, spilled components
    /// shrunk to one member, and the one-member component a split leaves at a
    /// non-origin cell (built, as `World` does, from `empty()` plus one insert).
    #[test]
    fn insert_remove_matches_a_map_model() {
        use rand::Rng;
        use std::collections::BTreeMap;
        let mut rng = crate::rng::seeded(15);
        let mut next_node = 0u32;
        for round in 0..200 {
            let (mut c, mut model) = if round % 2 == 0 {
                let node = NodeId::new(next_node);
                next_node += 1;
                (
                    Component::singleton(node),
                    BTreeMap::from([(Coord::ORIGIN, node)]),
                )
            } else {
                (Component::empty(), BTreeMap::new())
            };
            let mut order: Vec<NodeId> = model.values().copied().collect();
            for _ in 0..rng.gen_range(1..12usize) {
                let grow = model.is_empty() || (model.len() < 4 && rng.gen_bool(0.6));
                if grow {
                    let pos = Coord::new2(
                        rng.gen_range(0..4u32) as i32 - 2,
                        rng.gen_range(0..4u32) as i32 - 2,
                    );
                    if model.contains_key(&pos) {
                        continue;
                    }
                    let node = NodeId::new(next_node);
                    next_node += 1;
                    c.insert(node, pos);
                    model.insert(pos, node);
                    order.push(node);
                } else {
                    let k = rng.gen_range(0..model.len());
                    let (&pos, &node) = model.iter().nth(k).expect("k < len");
                    c.remove(node, pos);
                    model.remove(&pos);
                    let idx = order.iter().position(|&m| m == node).expect("member");
                    order.swap_remove(idx);
                }
                assert_eq!(c.len(), model.len());
                assert_eq!(c.is_empty(), model.is_empty());
                assert_eq!(c.members(), order.as_slice(), "membership order");
                let mut cells: Vec<(NodeId, Coord)> = c.iter().collect();
                cells.sort_by_key(|&(node, _)| node);
                let mut want: Vec<(NodeId, Coord)> = model.iter().map(|(&p, &n)| (n, p)).collect();
                want.sort_by_key(|&(node, _)| node);
                assert_eq!(cells, want);
                for x in -3..3 {
                    for y in -3..3 {
                        let pos = Coord::new2(x, y);
                        assert_eq!(c.node_at(pos), model.get(&pos).copied(), "cell {pos}");
                        assert_eq!(c.is_occupied(pos), model.contains_key(&pos));
                    }
                }
            }
        }
    }

    #[test]
    fn default_placement_is_origin() {
        assert_eq!(Placement::default(), Placement::origin());
        assert_eq!(Placement::origin().pos, Coord::ORIGIN);
        assert_eq!(Placement::origin().rot, Rotation::IDENTITY);
    }
}
