//! Rigid connected components and their grid embeddings.

use crate::NodeId;
use nc_geometry::{Coord, Rotation};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, used as a *deterministic* hasher for component occupancy maps.
///
/// The pair index and the enumerated permissible set iterate these maps, so their
/// iteration order could feed into which pair a walk reports first and into the order
/// of the sampler's enumerated set. `RandomState` would make seeded executions
/// differ between runs; a fixed hash function keeps them reproducible.
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
#[derive(Clone, Debug, Default)]
pub struct Component {
    members: Vec<NodeId>,
    occupied: HashMap<Coord, NodeId, DeterministicState>,
}

impl Component {
    /// Creates a singleton component containing `node` at the origin of its frame.
    #[must_use]
    pub fn singleton(node: NodeId) -> Component {
        let mut occupied = HashMap::default();
        occupied.insert(Coord::ORIGIN, node);
        Component {
            members: vec![node],
            occupied,
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
        &self.members
    }

    /// Number of member nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the component has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The node occupying `pos` in the component frame, if any.
    #[must_use]
    pub fn node_at(&self, pos: Coord) -> Option<NodeId> {
        self.occupied.get(&pos).copied()
    }

    /// Whether `pos` is occupied in the component frame.
    #[must_use]
    pub fn is_occupied(&self, pos: Coord) -> bool {
        self.occupied.contains_key(&pos)
    }

    /// Adds a member at `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is already occupied (that would mean two nodes falling onto the
    /// same grid cell, which the model forbids).
    pub fn insert(&mut self, node: NodeId, pos: Coord) {
        let prev = self.occupied.insert(pos, node);
        assert!(prev.is_none(), "cell {pos} already occupied");
        self.members.push(node);
    }

    /// Removes a member (by value) located at `pos`.
    ///
    /// # Panics
    /// Panics if the node is not a member at that position.
    pub fn remove(&mut self, node: NodeId, pos: Coord) {
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
        self.occupied.iter().map(|(&pos, &node)| (node, pos))
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
    fn default_placement_is_origin() {
        assert_eq!(Placement::default(), Placement::origin());
        assert_eq!(Placement::origin().pos, Coord::ORIGIN);
        assert_eq!(Placement::origin().rot, Rotation::IDENTITY);
    }
}
