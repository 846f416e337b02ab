//! Rigid connected components and their grid embeddings.

use crate::NodeId;
use nc_geometry::{Coord, Rotation};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, used as a *deterministic* hasher for the sparse occupancy maps of
/// components too spread out for a dense grid (see [`Component`]) and for the pair
/// index's effectiveness memo.
///
/// No sampler-visible order depends on it: the pair index and the enumerations only
/// look cells up, and a sparse component's cells reach [`Component::iter`] only through
/// callers that sort (`World::shape_of` builds a sorted `Shape`). A fixed hash function
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
    pub const fn origin() -> Placement {
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

/// A connected component: the set of member nodes and the occupancy of its frame.
///
/// The component does not store bonds — those live in the [`crate::World`]'s per-node
/// port tables — only which grid cell of the component frame each member occupies, which
/// is what the geometric permissibility checks need.
///
/// A component that has only ever held one node (every free node, and the lone node a
/// split cuts off) keeps that member inline as `(node, cell)` and allocates nothing;
/// the second [`Component::insert`] boxes a [`Spill`] and moves the inline member into
/// it, ahead of the new node. A spilled component never goes back inline, even when
/// removals shrink it to one member, so multi-node components keep exactly the
/// membership order they would have without the inline slot (sampler-visible: the
/// cross-pair walks and snapshots follow it). Boxing the spill keeps the slot a world
/// stores per component at 32 bytes (see the size pin below).
///
/// A spilled component's occupancy is a dense grid over a box of its frame: one `u32`
/// per cell, x-major (z varies fastest), so a walk over the grid visits cells in
/// ascending [`Coord`] order and [`Component::iter`] yields them sorted. An insert
/// outside the box re-lays the grid over the grown box, with slack of half the new
/// extent on the side it grew of every axis it grew along, so a line or a spiralling
/// square regrows `O(log k)` times; a line's box stays within 1.5 cells per member
/// and a spiral's within 4. The box may cover at most `8 · len + 64` cells
/// (`DENSE_CELLS_PER_MEMBER`, `DENSE_BASE_CELLS`): an insert whose box
/// would exceed that even without slack, or a remove that leaves the box above it,
/// demotes the component, one way, to a sparse hash map (whose iteration order is
/// unsorted but deterministic).
#[derive(Clone, Debug, Default)]
pub struct Component {
    /// The sole member of a never-spilled component (`spill` is then `None`).
    inline: Option<(NodeId, Coord)>,
    spill: Option<Box<Spill>>,
}

/// The members and occupancy of a component that has held two nodes at once.
#[derive(Clone, Debug)]
struct Spill {
    members: Vec<NodeId>,
    occupied: Occupancy,
}

// The world keeps one `Option<Component>` per component slot on the engine hot path.
const _: () = assert!(std::mem::size_of::<Option<Component>>() <= 32);

/// Cells a dense grid may cover per member, on top of [`DENSE_BASE_CELLS`]. Growing
/// lines and spiralling squares stay well inside it (see [`Component`]); a sparse
/// shape, say a long diagonal staircase, is demoted.
const DENSE_CELLS_PER_MEMBER: usize = 8;

/// Cells any dense grid may cover regardless of its member count, so small components
/// never demote over slack.
const DENSE_BASE_CELLS: usize = 64;

/// The most cells a dense grid of `members` members may cover.
fn dense_bound(members: usize) -> usize {
    DENSE_CELLS_PER_MEMBER * members + DENSE_BASE_CELLS
}

/// Where a spilled component keeps its cell → member map.
#[derive(Clone, Debug)]
enum Occupancy {
    Dense(Grid),
    Sparse(HashMap<Coord, NodeId, DeterministicState>),
}

/// A grid cell no member occupies.
const EMPTY: u32 = u32::MAX;

/// A dense occupancy grid over the box `lo .. lo + ext` of a component frame.
#[derive(Clone, Debug)]
struct Grid {
    /// The box's lowest corner.
    lo: Coord,
    /// The box's extent along x, y and z; each at least 1.
    ext: [u32; 3],
    /// `ext[0] · ext[1] · ext[2]` cells, x-major: the member id, or [`EMPTY`].
    cells: Vec<u32>,
}

/// A box as per-axis half-open `i64` ranges, so extents of any two `i32` coordinates
/// are exact.
type Bounds = [(i64, i64); 3];

fn axes(pos: Coord) -> [i64; 3] {
    [pos.x, pos.y, pos.z].map(i64::from)
}

/// The number of cells of `bounds`, or `None` past `usize`.
fn volume(bounds: &Bounds) -> Option<usize> {
    bounds.iter().try_fold(1usize, |acc, &(lo, hi)| {
        acc.checked_mul(usize::try_from(hi - lo).ok()?)
    })
}

impl Grid {
    /// An empty grid laid over `bounds`, which the caller has checked against the
    /// density bound.
    fn over(bounds: &Bounds) -> Grid {
        let len = volume(bounds).expect("a bounded box has a volume");
        // Every range lies within `i32` and holds at most `len` cells.
        let coord = |axis: usize| bounds[axis].0 as i32;
        Grid {
            lo: Coord::new(coord(0), coord(1), coord(2)),
            ext: bounds.map(|(lo, hi)| (hi - lo) as u32),
            cells: vec![EMPTY; len],
        }
    }

    fn bounds(&self) -> Bounds {
        let lo = axes(self.lo);
        [0, 1, 2].map(|axis| (lo[axis], lo[axis] + i64::from(self.ext[axis])))
    }

    /// The index of `pos` in `cells`, or `None` outside the box.
    #[inline]
    fn slot(&self, pos: Coord) -> Option<usize> {
        let offset = |p: i32, lo: i32, ext: u32| {
            let d = i64::from(p) - i64::from(lo);
            ((d as u64) < u64::from(ext)).then_some(d as usize)
        };
        let x = offset(pos.x, self.lo.x, self.ext[0])?;
        let y = offset(pos.y, self.lo.y, self.ext[1])?;
        let z = offset(pos.z, self.lo.z, self.ext[2])?;
        Some((x * self.ext[1] as usize + y) * self.ext[2] as usize + z)
    }

    fn get(&self, pos: Coord) -> Option<NodeId> {
        let cell = self.cells[self.slot(pos)?];
        (cell != EMPTY).then(|| NodeId::new(cell))
    }

    /// Re-lays the grid over a box that also covers `pos`: with slack of half the new
    /// extent beyond `pos` on each axis that grew when that fits `max_cells`, else
    /// without slack. Returns `false`, leaving the grid as it was, when even the box
    /// without slack holds more than `max_cells` cells.
    fn grow_to(&mut self, pos: Coord, max_cells: usize) -> bool {
        let old = self.bounds();
        let p = axes(pos);
        let tight: Bounds = [0, 1, 2].map(|axis| {
            let (lo, hi) = old[axis];
            (lo.min(p[axis]), hi.max(p[axis] + 1))
        });
        let slack: Bounds = [0, 1, 2].map(|axis| {
            let (lo, hi) = tight[axis];
            let pad = (hi - lo) / 2;
            if lo < old[axis].0 {
                ((lo - pad).max(i64::from(i32::MIN)), hi)
            } else if hi > old[axis].1 {
                (lo, (hi + pad).min(i64::from(i32::MAX) + 1))
            } else {
                (lo, hi)
            }
        });
        let fits = |b: &Bounds| volume(b).is_some_and(|v| v <= max_cells);
        let bounds = if fits(&slack) {
            slack
        } else if fits(&tight) {
            tight
        } else {
            return false;
        };
        let mut grown = Grid::over(&bounds);
        let [ex, ey, ez] = self.ext.map(|e| e as usize);
        let shift = |axis: usize| (old[axis].0 - bounds[axis].0) as usize;
        let (sx, sy, sz) = (shift(0), shift(1), shift(2));
        let (gy, gz) = (grown.ext[1] as usize, grown.ext[2] as usize);
        for x in 0..ex {
            for y in 0..ey {
                let from = (x * ey + y) * ez;
                let to = ((x + sx) * gy + y + sy) * gz + sz;
                grown.cells[to..to + ez].copy_from_slice(&self.cells[from..from + ez]);
            }
        }
        *self = grown;
        true
    }

    /// The occupied cells in ascending `Coord` order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, Coord)> + '_ {
        let [_, ey, ez] = self.ext.map(|e| e as usize);
        let lo = self.lo;
        let planes = self.cells.chunks_exact(ey * ez).zip(lo.x..);
        planes.flat_map(move |(plane, x)| {
            let rows = plane.chunks_exact(ez).zip(lo.y..);
            rows.flat_map(move |(row, y)| {
                row.iter()
                    .zip(lo.z..)
                    .filter(|&(&cell, _)| cell != EMPTY)
                    .map(move |(&cell, z)| (NodeId::new(cell), Coord::new(x, y, z)))
            })
        })
    }
}

impl Occupancy {
    /// A dense grid over exactly the box of `members` when that fits the density
    /// bound, else a sparse map. `None` when two members share a cell.
    fn of(members: &[(NodeId, Coord)]) -> Option<Occupancy> {
        let mut bounds: Bounds = [(i64::MAX, i64::MIN); 3];
        for &(_, pos) in members {
            for (axis, p) in axes(pos).into_iter().enumerate() {
                bounds[axis] = (bounds[axis].0.min(p), bounds[axis].1.max(p + 1));
            }
        }
        let mut occupancy = if volume(&bounds).is_some_and(|v| v <= dense_bound(members.len())) {
            Occupancy::Dense(Grid::over(&bounds))
        } else {
            Occupancy::Sparse(HashMap::with_capacity_and_hasher(
                members.len(),
                DeterministicState::default(),
            ))
        };
        for &(node, pos) in members {
            if occupancy.insert(node, pos, members.len()).is_some() {
                return None;
            }
        }
        Some(occupancy)
    }

    #[inline]
    fn get(&self, pos: Coord) -> Option<NodeId> {
        match self {
            Occupancy::Dense(grid) => grid.get(pos),
            Occupancy::Sparse(map) => map.get(&pos).copied(),
        }
    }

    /// Maps `pos` to `node`, returning the previous occupant; `members` is the member
    /// count after the insert.
    fn insert(&mut self, node: NodeId, pos: Coord, members: usize) -> Option<NodeId> {
        if let Occupancy::Dense(grid) = self {
            let slot = grid.slot(pos).or_else(|| {
                grid.grow_to(pos, dense_bound(members))
                    .then(|| grid.slot(pos))?
            });
            if let Some(slot) = slot {
                let prev = std::mem::replace(&mut grid.cells[slot], node.index() as u32);
                return (prev != EMPTY).then(|| NodeId::new(prev));
            }
            self.demote();
        }
        let Occupancy::Sparse(map) = self else {
            unreachable!("a dense grid either took the cell or was demoted")
        };
        map.insert(pos, node)
    }

    /// Clears `pos`, returning its occupant; `members` is the member count after the
    /// remove.
    fn remove(&mut self, pos: Coord, members: usize) -> Option<NodeId> {
        match self {
            Occupancy::Dense(grid) => {
                let slot = grid.slot(pos)?;
                let prev = std::mem::replace(&mut grid.cells[slot], EMPTY);
                if grid.cells.len() > dense_bound(members) {
                    self.demote();
                }
                (prev != EMPTY).then(|| NodeId::new(prev))
            }
            Occupancy::Sparse(map) => map.remove(&pos),
        }
    }

    /// Moves a dense grid's cells into a sparse map.
    fn demote(&mut self) {
        if let Occupancy::Dense(grid) = self {
            *self = Occupancy::Sparse(grid.iter().map(|(node, pos)| (pos, node)).collect());
        }
    }
}

impl Component {
    /// Creates a singleton component containing `node` at the origin of its frame.
    #[must_use]
    pub fn singleton(node: NodeId) -> Component {
        Component {
            inline: Some((node, Coord::ORIGIN)),
            spill: None,
        }
    }

    /// Creates an empty component (used when splitting).
    #[must_use]
    pub fn empty() -> Component {
        Component::default()
    }

    /// A component of `members`, in that membership order, with its occupancy sized
    /// once from all their cells (one member stays inline); `None` when two members
    /// share a cell. Used by snapshot decoding: the box is computed in `i64` and
    /// checked against the density bound before anything is allocated, so far-apart
    /// cells fall back to the sparse map instead of a grid sized by their distance.
    #[must_use]
    pub(crate) fn from_members(members: &[(NodeId, Coord)]) -> Option<Component> {
        match *members {
            [(node, pos)] => Some(Component {
                inline: Some((node, pos)),
                spill: None,
            }),
            _ => Some(Component {
                inline: None,
                spill: Some(Box::new(Spill {
                    members: members.iter().map(|&(node, _)| node).collect(),
                    occupied: Occupancy::of(members)?,
                })),
            }),
        }
    }

    /// The member nodes (unsorted).
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        match (&self.inline, &self.spill) {
            (Some((node, _)), _) => std::slice::from_ref(node),
            (None, Some(spill)) => &spill.members,
            (None, None) => &[],
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
    #[inline]
    pub fn node_at(&self, pos: Coord) -> Option<NodeId> {
        match (self.inline, &self.spill) {
            (Some((node, at)), _) => (at == pos).then_some(node),
            (None, Some(spill)) => spill.occupied.get(pos),
            (None, None) => None,
        }
    }

    /// Whether `pos` is occupied in the component frame.
    #[must_use]
    #[inline]
    pub fn is_occupied(&self, pos: Coord) -> bool {
        self.node_at(pos).is_some()
    }

    /// Adds a member at `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is already occupied (that would mean two nodes falling onto the
    /// same grid cell, which the model forbids).
    pub fn insert(&mut self, node: NodeId, pos: Coord) {
        let spill = match (self.inline.take(), &mut self.spill) {
            // Never spilled and empty: the first member stays inline.
            (None, None) => {
                self.inline = Some((node, pos));
                return;
            }
            (None, Some(spill)) => spill,
            (Some((first, at)), spill) => spill.insert(Box::new(Spill {
                members: vec![first],
                occupied: Occupancy::of(&[(first, at)]).expect("one member fits its cell"),
            })),
        };
        let prev = spill.occupied.insert(node, pos, spill.members.len() + 1);
        assert!(prev.is_none(), "cell {pos} already occupied");
        spill.members.push(node);
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
        let spill = self.spill.as_mut().expect("node must be a member");
        let at = spill.occupied.remove(pos, spill.members.len() - 1);
        assert_eq!(at, Some(node), "node {node} was not at {pos}");
        let idx = spill
            .members
            .iter()
            .position(|&m| m == node)
            .expect("node must be a member");
        spill.members.swap_remove(idx);
    }

    /// Iterates over `(node, position)` pairs: in ascending position order unless the
    /// component was demoted to the sparse map.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Coord)> + '_ {
        let (grid, map) = match self.spill.as_deref().map(|spill| &spill.occupied) {
            Some(Occupancy::Dense(grid)) => (Some(grid), None),
            Some(Occupancy::Sparse(map)) => (None, Some(map)),
            None => (None, None),
        };
        self.inline
            .into_iter()
            .chain(grid.into_iter().flat_map(Grid::iter))
            .chain(
                map.into_iter()
                    .flat_map(|map| map.iter().map(|(&pos, &node)| (node, pos))),
            )
    }

    /// The number of occupied cells, counted from the occupancy itself (not the
    /// membership list); equal to [`Component::len`] in a consistent component.
    #[must_use]
    pub(crate) fn occupied_cells(&self) -> usize {
        match (
            &self.inline,
            self.spill.as_deref().map(|spill| &spill.occupied),
        ) {
            (Some(_), _) => 1,
            (None, Some(Occupancy::Dense(grid))) => {
                grid.cells.iter().filter(|&&cell| cell != EMPTY).count()
            }
            (None, Some(Occupancy::Sparse(map))) => map.len(),
            (None, None) => 0,
        }
    }

    /// The number of cells of the dense grid, or `None` for an inline or sparse
    /// component.
    #[cfg(test)]
    pub(crate) fn dense_cells(&self) -> Option<usize> {
        match self.spill.as_deref().map(|spill| &spill.occupied) {
            Some(Occupancy::Dense(grid)) => Some(grid.cells.len()),
            _ => None,
        }
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
        assert!(c.spill.is_none(), "a singleton boxes no spill");
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
        assert!(c.spill.is_none(), "one member stays inline");
        assert_eq!(c.node_at(Coord::new2(2, -1)), Some(NodeId::new(3)));
        c.insert(NodeId::new(9), Coord::new2(2, 0));
        assert!(c.inline.is_none());
        assert_eq!(c.members(), &[NodeId::new(3), NodeId::new(9)]);
        // Shrinking back to one member keeps the spilled representation.
        c.remove(NodeId::new(3), Coord::new2(2, -1));
        assert_eq!(c.members(), &[NodeId::new(9)]);
        assert!(c.inline.is_none());
        assert!(c.spill.is_some());
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
            let mut spilled = false;
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
                spilled |= model.len() >= 2;
                assert_eq!(c.spill.is_some(), spilled, "spilled once two members met");
                assert_eq!(c.inline.is_some(), !spilled && model.len() == 1);
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

    /// Checks `c` against `model`: length, `node_at` on every model cell and its six
    /// neighbours, `iter` (in ascending `Coord` order while dense), the occupied-cell
    /// count and the density bound. Returns whether `c` is dense.
    fn assert_matches(c: &Component, model: &std::collections::BTreeMap<Coord, NodeId>) -> bool {
        assert_eq!(c.len(), model.len());
        assert_eq!(c.occupied_cells(), model.len());
        for &pos in model.keys() {
            for probe in std::iter::once(pos).chain(pos.neighbors3()) {
                assert_eq!(c.node_at(probe), model.get(&probe).copied(), "cell {probe}");
            }
        }
        let want: Vec<(NodeId, Coord)> = model.iter().map(|(&p, &n)| (n, p)).collect();
        let mut cells: Vec<(NodeId, Coord)> = c.iter().collect();
        let dense = c.dense_cells();
        if let Some(grid_cells) = dense {
            assert!(
                grid_cells <= dense_bound(c.len()),
                "{grid_cells} grid cells for {} members",
                c.len()
            );
            assert_eq!(
                cells, want,
                "a dense component iterates in coordinate order"
            );
        }
        cells.sort_by_key(|&(_, pos)| pos);
        assert_eq!(cells, want);
        dense.is_some()
    }

    /// Random 3D growth and removal against a `BTreeMap` model: clusters grow from a
    /// random member's cell in all six directions (so boxes grow on both sides of
    /// every axis), removes punch holes and can demote a grid left too sparse, and
    /// every third round inserts a far-away cell that must demote the component.
    #[test]
    fn dense_grid_matches_a_map_model() {
        use rand::Rng;
        use std::collections::BTreeMap;
        let mut rng = crate::rng::seeded(24);
        let mut next_node = 0u32;
        let (mut grew_both_sides, mut demoted) = (0, 0);
        for round in 0..60 {
            let mut c = Component::singleton(NodeId::new(next_node));
            let mut model = BTreeMap::from([(Coord::ORIGIN, NodeId::new(next_node))]);
            next_node += 1;
            let (mut lo, mut hi) = (Coord::ORIGIN, Coord::ORIGIN);
            for op in 0..300 {
                if round % 3 == 2 && op == 150 {
                    let far = Coord::new(-4000, 2500, 9);
                    c.insert(NodeId::new(next_node), far);
                    model.insert(far, NodeId::new(next_node));
                    next_node += 1;
                    assert!(!assert_matches(&c, &model), "a far cell demotes");
                    continue;
                }
                if model.len() > 2 && rng.gen_bool(0.2) {
                    let k = rng.gen_range(0..model.len());
                    let (&pos, &node) = model.iter().nth(k).expect("k < len");
                    c.remove(node, pos);
                    model.remove(&pos);
                } else {
                    let k = rng.gen_range(0..model.len());
                    let from = *model.keys().nth(k).expect("k < len");
                    let pos = from.neighbors3()[rng.gen_range(0..6usize)];
                    if model.contains_key(&pos) {
                        continue;
                    }
                    c.insert(NodeId::new(next_node), pos);
                    model.insert(pos, NodeId::new(next_node));
                    next_node += 1;
                }
                if assert_matches(&c, &model) {
                    for &pos in model.keys() {
                        lo = Coord::new(lo.x.min(pos.x), lo.y.min(pos.y), lo.z.min(pos.z));
                        hi = Coord::new(hi.x.max(pos.x), hi.y.max(pos.y), hi.z.max(pos.z));
                    }
                } else {
                    demoted += 1;
                }
            }
            if [lo.x, lo.y, lo.z].iter().all(|&v| v < 0)
                && [hi.x, hi.y, hi.z].iter().all(|&v| v > 0)
            {
                grew_both_sides += 1;
            }
        }
        assert!(
            grew_both_sides >= 25,
            "{grew_both_sides} rounds grew on both sides of every axis"
        );
        assert!(demoted > 0, "some components were demoted");
    }

    #[test]
    fn growing_lines_and_squares_stay_dense() {
        let mut next_node = 0u32;
        let mut node = || {
            next_node += 1;
            NodeId::new(next_node - 1)
        };
        for step in [Coord::new2(1, 0), Coord::new2(0, -1), Coord::new(0, 0, 1)] {
            let mut line = Component::empty();
            let mut pos = Coord::ORIGIN;
            for _ in 0..20_000 {
                line.insert(node(), pos);
                pos = pos + step;
            }
            let cells = line.dense_cells().expect("a line stays dense");
            assert!(2 * cells <= 3 * line.len(), "{cells} cells for a line");
        }
        // The perimetric spiral `Square` grows: a side, then a turn, around and around.
        let mut square = Component::singleton(node());
        let (mut pos, mut dir, mut side) = (Coord::ORIGIN, 0usize, 1);
        let dirs = [
            Coord::new2(0, 1),
            Coord::new2(1, 0),
            Coord::new2(0, -1),
            Coord::new2(-1, 0),
        ];
        while square.len() < 150 * 150 {
            for _ in 0..2 {
                for _ in 0..side {
                    pos = pos + dirs[dir];
                    square.insert(node(), pos);
                    let cells = square.dense_cells().expect("a spiral stays dense");
                    assert!(cells <= 4 * square.len() + DENSE_BASE_CELLS);
                }
                dir = (dir + 1) % 4;
            }
            side += 1;
        }
    }

    #[test]
    fn from_members_sizes_the_box_once() {
        let n = NodeId::new;
        let members = [
            (n(4), Coord::new(2, -1, 0)),
            (n(1), Coord::new(-1, 3, 0)),
            (n(7), Coord::new(0, 0, 0)),
        ];
        let c = Component::from_members(&members).expect("distinct cells");
        assert_eq!(c.members(), &[n(4), n(1), n(7)], "membership order kept");
        assert_eq!(c.dense_cells(), Some(4 * 5), "exactly the members' box");
        let mut model: std::collections::BTreeMap<Coord, NodeId> =
            members.iter().map(|&(node, pos)| (pos, node)).collect();
        assert!(assert_matches(&c, &model));

        let far = [
            (n(0), Coord::new(-(1 << 30), 0, 0)),
            (n(1), Coord::new(1 << 30, 0, 0)),
        ];
        let c = Component::from_members(&far).expect("distinct cells");
        assert_eq!(
            c.dense_cells(),
            None,
            "far-apart members get the sparse map"
        );
        model = far.iter().map(|&(node, pos)| (pos, node)).collect();
        assert!(!assert_matches(&c, &model));

        let lone = Component::from_members(&[(n(3), Coord::new2(5, 5))]).expect("one member");
        assert!(lone.spill.is_none(), "one member stays inline");
        assert_eq!(lone.node_at(Coord::new2(5, 5)), Some(n(3)));

        let clash = [(n(0), Coord::new2(1, 1)), (n(1), Coord::new2(1, 1))];
        assert!(Component::from_members(&clash).is_none());
    }

    #[test]
    fn default_placement_is_origin() {
        assert_eq!(Placement::default(), Placement::origin());
        assert_eq!(Placement::origin().pos, Coord::ORIGIN);
        assert_eq!(Placement::origin().rot, Rotation::IDENTITY);
    }
}
