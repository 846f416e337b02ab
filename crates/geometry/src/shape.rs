//! Shapes: subnetworks of the unit grid.
//!
//! The paper calls a *2D (3D) shape* any connected subnetwork of the 2D (3D) grid network
//! with unit distances. A [`Shape`] stores a set of occupied grid cells together with the
//! set of active edges between adjacent occupied cells; connectivity is defined over the
//! edges (two occupied cells that happen to be adjacent but whose bond is inactive are
//! *not* connected through that bond).
//!
//! A shape is stored as two sorted, deduplicated `Vec`s, which makes extraction and
//! checking of large output shapes linear passes; [`Shape`] lists the cost of each
//! operation.

use crate::{Coord, Dim, Dir, GeometryError, Result, Rotation};
use std::fmt;

/// A (not necessarily connected) subnetwork of the grid: occupied cells plus active edges
/// between adjacent occupied cells.
///
/// # Storage and cost
///
/// Cells and edges are two sorted, deduplicated `Vec`s; an edge is stored once, as
/// `(a, b)` with `a < b`. Equality, ordering and hashing compare the sorted cells, then
/// the sorted edges, lexicographically. With `n` cells and `e` edges:
///
/// - [`Shape::from_cells`] and [`Shape::from_cells_and_edges`] are the bulk
///   constructors: one sort of each input, then one pass, `O((n + e) log n)`.
/// - [`Shape::contains_cell`] and [`Shape::contains_edge`] are binary searches over
///   contiguous memory, `O(log n)`.
/// - [`Shape::insert_cell`] and [`Shape::insert_edge`] shift the tail of a `Vec`, `O(n)`
///   each: they are meant for small shapes built by hand. Build large shapes with one
///   bulk call.
/// - [`Shape::is_connected`] and [`Shape::components`] run union-find with path
///   halving over the edge list, near-linear in `n + e`: one forward cursor per edge
///   direction finds every endpoint's cell index in a single pass, with no lookups.
/// - [`Shape::is_line`] and [`Shape::is_full_rectangle`] take one bounding-box pass and
///   compare the cell and edge counts with closed forms before they check
///   connectivity.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Shape {
    /// Occupied cells, sorted and distinct.
    cells: Vec<Coord>,
    /// Active edges `(a, b)` with `a < b`, sorted and distinct; both ends are in `cells`
    /// and adjacent.
    edges: Vec<(Coord, Coord)>,
}

/// The three unit steps to a cell's neighbours above it in the coordinate order, in
/// increasing order of the neighbour: `c + z < c + y < c + x`.
const UP_STEPS: [Coord; 3] = [
    Coord::new(0, 0, 1),
    Coord::new(0, 1, 0),
    Coord::new(1, 0, 0),
];

impl Shape {
    /// The empty shape.
    #[must_use]
    pub fn new() -> Shape {
        Shape::default()
    }

    /// Builds a shape from a set of cells, activating *every* edge between adjacent cells.
    ///
    /// ```
    /// use nc_geometry::{Shape, Coord};
    /// let s = Shape::from_cells([Coord::new2(0, 0), Coord::new2(1, 0), Coord::new2(2, 0)]);
    /// assert_eq!(s.len(), 3);
    /// assert_eq!(s.edge_count(), 2);
    /// assert!(s.is_connected());
    /// ```
    #[must_use]
    pub fn from_cells<I: IntoIterator<Item = Coord>>(cells: I) -> Shape {
        let cells = sorted(cells.into_iter().collect());
        // Translation keeps the order, so the neighbours `c + step` of the sorted cells
        // are sorted too: one forward cursor per step finds them all. Pushing each cell's
        // edges in `UP_STEPS` order keeps the edge list sorted.
        let mut cursors = [0; 3];
        let mut edges = Vec::new();
        for &c in &cells {
            for (cursor, step) in cursors.iter_mut().zip(UP_STEPS) {
                let n = c + step;
                *cursor = seek(&cells, *cursor, n);
                if cells.get(*cursor) == Some(&n) {
                    edges.push((c, n));
                }
            }
        }
        Shape { cells, edges }
    }

    /// Builds a shape from explicit cells and edges in one bulk pass: the cells and the
    /// edges are sorted and deduplicated, then every edge is checked against the sorted
    /// cells by forward cursors. Edges that already come strictly ascending, each from
    /// its lower endpoint (as the simulator's `World::shape_of` emits them), are used as
    /// given, without a second list.
    ///
    /// # Errors
    /// Returns an error for the first edge, in input order, that joins non-adjacent
    /// cells or refers to a missing cell (the error [`Shape::insert_edge`] would give).
    pub fn from_cells_and_edges<I, J>(cells: I, edges: J) -> Result<Shape>
    where
        I: IntoIterator<Item = Coord>,
        J: IntoIterator<Item = (Coord, Coord)>,
    {
        let input: Vec<(Coord, Coord)> = edges.into_iter().collect();
        let canonical = input.iter().all(|&(a, b)| a <= b) && input.windows(2).all(|w| w[0] < w[1]);
        // The input order survives only where sorting changes it, for error reports.
        let (edges, input) = if canonical {
            (input, None)
        } else {
            let edges = sorted(input.iter().map(|&(a, b)| ordered(a, b)).collect());
            (edges, Some(input))
        };
        let shape = Shape {
            cells: sorted(cells.into_iter().collect()),
            edges,
        };
        if locate_ends(&shape.cells, &shape.edges).all(|ends| ends.is_some()) {
            return Ok(shape);
        }
        // Some edge is bad: report the first one in input order.
        for &(a, b) in input.as_deref().unwrap_or(&shape.edges) {
            shape.check_edge(a, b)?;
        }
        unreachable!("an edge failed the sorted pass but passes its own check")
    }

    /// Inserts a cell (without any edges). Returns `true` if it was not already present.
    /// `O(n)`: meant for small shapes.
    pub fn insert_cell(&mut self, c: Coord) -> bool {
        match self.cells.binary_search(&c) {
            Ok(_) => false,
            Err(at) => {
                self.cells.insert(at, c);
                true
            }
        }
    }

    /// Activates the edge between two adjacent occupied cells. `O(n)`: meant for small
    /// shapes.
    ///
    /// # Errors
    /// Returns [`GeometryError::MissingCell`] if either endpoint is not occupied and
    /// [`GeometryError::NotAdjacent`] if the endpoints are not at unit distance.
    pub fn insert_edge(&mut self, a: Coord, b: Coord) -> Result<()> {
        self.check_edge(a, b)?;
        let edge = ordered(a, b);
        if let Err(at) = self.edges.binary_search(&edge) {
            self.edges.insert(at, edge);
        }
        Ok(())
    }

    /// Whether `a`–`b` may be an edge of this shape: both cells occupied, at unit
    /// distance.
    fn check_edge(&self, a: Coord, b: Coord) -> Result<()> {
        if !self.contains_cell(a) {
            return Err(GeometryError::MissingCell(a));
        }
        if !self.contains_cell(b) {
            return Err(GeometryError::MissingCell(b));
        }
        if !a.is_adjacent(b) {
            return Err(GeometryError::NotAdjacent(a, b));
        }
        Ok(())
    }

    /// Number of occupied cells (the *order* of the shape).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the shape has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of active edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over the occupied cells in sorted order.
    pub fn cells(&self) -> impl Iterator<Item = Coord> + '_ {
        self.cells.iter().copied()
    }

    /// Iterates over the active edges (each reported once, endpoints sorted).
    pub fn edges(&self) -> impl Iterator<Item = (Coord, Coord)> + '_ {
        self.edges.iter().copied()
    }

    /// Whether `c` is an occupied cell.
    #[must_use]
    pub fn contains_cell(&self, c: Coord) -> bool {
        self.cells.binary_search(&c).is_ok()
    }

    /// Whether the edge between `a` and `b` is active.
    #[must_use]
    pub fn contains_edge(&self, a: Coord, b: Coord) -> bool {
        self.edges.binary_search(&ordered(a, b)).is_ok()
    }

    /// Whether the shape lies entirely in the `z = 0` plane.
    #[must_use]
    pub fn is_planar(&self) -> bool {
        self.cells.iter().all(|c| c.is_planar())
    }

    /// Whether the shape is connected through its *active edges*.
    ///
    /// The empty shape and singleton shapes are connected.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.union_find().1 <= 1
    }

    /// The cell indices of every edge's ends, in edge order.
    fn edge_ends(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        locate_ends(&self.cells, &self.edges)
            .map(|ends| ends.expect("every edge joins two adjacent cells of the shape"))
    }

    /// Union-find over the cells, joined along every edge: each cell's parent link and
    /// the number of components.
    fn union_find(&self) -> (Vec<usize>, usize) {
        let mut parent: Vec<usize> = (0..self.cells.len()).collect();
        let mut components = self.cells.len();
        for (a, b) in self.edge_ends() {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
                components -= 1;
            }
        }
        (parent, components)
    }

    /// The minimum and maximum corner of the axis-aligned bounding box, if non-empty.
    #[must_use]
    pub fn bounding_box(&self) -> Option<(Coord, Coord)> {
        let mut it = self.cells.iter();
        let first = *it.next()?;
        let mut min = first;
        let mut max = first;
        for &c in it {
            min.x = min.x.min(c.x);
            min.y = min.y.min(c.y);
            min.z = min.z.min(c.z);
            max.x = max.x.max(c.x);
            max.y = max.y.max(c.y);
            max.z = max.z.max(c.z);
        }
        Some((min, max))
    }

    /// The paper's `h_G`: number of columns spanned by the shape (0 for the empty shape).
    #[must_use]
    pub fn h_dim(&self) -> u32 {
        self.bounding_box()
            .map_or(0, |(min, max)| (max.x - min.x + 1) as u32)
    }

    /// The paper's `v_G`: number of rows spanned by the shape (0 for the empty shape).
    #[must_use]
    pub fn v_dim(&self) -> u32 {
        self.bounding_box()
            .map_or(0, |(min, max)| (max.y - min.y + 1) as u32)
    }

    /// Number of `z` layers spanned by the shape (1 for planar non-empty shapes).
    #[must_use]
    pub fn z_dim(&self) -> u32 {
        self.bounding_box()
            .map_or(0, |(min, max)| (max.z - min.z + 1) as u32)
    }

    /// The paper's `max dim_G = max(h_G, v_G)`.
    #[must_use]
    pub fn max_dim(&self) -> u32 {
        self.h_dim().max(self.v_dim()).max(self.z_dim())
    }

    /// The paper's `min dim_G = min(h_G, v_G)` (restricted to the plane).
    #[must_use]
    pub fn min_dim(&self) -> u32 {
        self.h_dim().min(self.v_dim())
    }

    /// The shape translated by `offset`.
    #[must_use]
    pub fn translated(&self, offset: Coord) -> Shape {
        // Translation keeps the order: no re-sort.
        Shape {
            cells: self.cells.iter().map(|&c| c + offset).collect(),
            edges: self
                .edges
                .iter()
                .map(|&(a, b)| (a + offset, b + offset))
                .collect(),
        }
    }

    /// The shape rotated about the origin by `rot`.
    #[must_use]
    pub fn rotated(&self, rot: Rotation) -> Shape {
        Shape {
            cells: sorted(self.cells.iter().map(|&c| rot.apply_coord(c)).collect()),
            edges: sorted(
                self.edges
                    .iter()
                    .map(|&(a, b)| ordered(rot.apply_coord(a), rot.apply_coord(b)))
                    .collect(),
            ),
        }
    }

    /// Convenience: the shape rotated by a clockwise quarter turn about `z`.
    #[must_use]
    pub fn rotated_cw(&self) -> Shape {
        self.rotated(Rotation::quarter_turn_cw())
    }

    /// Translates the shape so that the minimum corner of its bounding box is the origin.
    #[must_use]
    pub fn normalized(&self) -> Shape {
        match self.bounding_box() {
            None => self.clone(),
            Some((min, _)) => self.translated(-min),
        }
    }

    /// A canonical representative of the shape's congruence class (invariant under
    /// translation and rotation). Planar shapes use the 4 planar rotations, non-planar
    /// shapes all 24.
    #[must_use]
    pub fn canonical(&self) -> Shape {
        let dim = if self.is_planar() {
            Dim::Two
        } else {
            Dim::Three
        };
        Rotation::all(dim)
            .into_iter()
            .map(|r| self.rotated(r).normalized())
            .min()
            .unwrap_or_else(Shape::new)
    }

    /// Whether two shapes are congruent, i.e. equal up to translation and rotation.
    #[must_use]
    pub fn congruent(&self, other: &Shape) -> bool {
        self.len() == other.len()
            && self.edge_count() == other.edge_count()
            && self.canonical() == other.canonical()
    }

    /// Whether the cell sets of the two shapes intersect.
    #[must_use]
    pub fn overlaps(&self, other: &Shape) -> bool {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.cells.iter().any(|&c| large.contains_cell(c))
    }

    /// The union of two shapes (cells and edges).
    #[must_use]
    pub fn union(&self, other: &Shape) -> Shape {
        Shape {
            cells: sorted([&self.cells[..], &other.cells[..]].concat()),
            edges: sorted([&self.edges[..], &other.edges[..]].concat()),
        }
    }

    /// Whether the shape is a straight line of `len` cells (fully bonded), in any axis
    /// direction.
    #[must_use]
    pub fn is_line(&self, len: usize) -> bool {
        if len == 0 || self.len() != len || self.edge_count() + 1 != len {
            return false;
        }
        if len == 1 {
            return true;
        }
        let Some((min, max)) = self.bounding_box() else {
            return false;
        };
        let dims = [span(min.x, max.x), span(min.y, max.y), span(min.z, max.z)];
        dims.iter().filter(|&&d| d == len as u64).count() == 1
            && dims.iter().filter(|&&d| d <= 1).count() == 2
            && self.is_connected()
    }

    /// Whether the shape is a fully bonded `w × h` rectangle in the plane.
    #[must_use]
    pub fn is_full_rectangle(&self, w: u32, h: u32) -> bool {
        let (w, h) = (u64::from(w), u64::from(h));
        if self.len() as u64 != w * h {
            return false;
        }
        let (planar, x, y) = self.bounding_box().map_or((true, 0, 0), |(min, max)| {
            (
                min.z == 0 && max.z == 0,
                span(min.x, max.x),
                span(min.y, max.y),
            )
        });
        if !planar || !((x == w && y == h) || (x == h && y == w)) {
            return false;
        }
        // `w·h` distinct cells inside a `w × h` box are the whole box, whose adjacent
        // pairs number `w(h − 1) + h(w − 1)`: fully bonded means that many edges.
        let full_edges = w * h.saturating_sub(1) + h * w.saturating_sub(1);
        self.edge_count() as u64 == full_edges && self.is_connected()
    }

    /// Whether the shape is a fully bonded `d × d` square in the plane.
    #[must_use]
    pub fn is_full_square(&self, d: u32) -> bool {
        self.is_full_rectangle(d, d)
    }

    /// Splits the shape into its connected components (each returned as a `Shape`),
    /// ordered by their smallest cell.
    #[must_use]
    pub fn components(&self) -> Vec<Shape> {
        let (mut parent, count) = self.union_find();
        // Components are numbered as their first cell comes up, so they are ordered by
        // their smallest cell; cells and edges are pushed in sorted order, so each
        // component's lists are sorted.
        let mut number_of_root = vec![usize::MAX; self.cells.len()];
        let mut label = Vec::with_capacity(self.cells.len());
        let mut out: Vec<Shape> = Vec::with_capacity(count);
        for (i, &c) in self.cells.iter().enumerate() {
            let root = find(&mut parent, i);
            if number_of_root[root] == usize::MAX {
                number_of_root[root] = out.len();
                out.push(Shape::new());
            }
            label.push(number_of_root[root]);
            out[number_of_root[root]].cells.push(c);
        }
        for ((a, _), &edge) in self.edge_ends().zip(&self.edges) {
            out[label[a]].edges.push(edge);
        }
        out
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Shape({} cells, {} edges, {}×{})",
            self.len(),
            self.edge_count(),
            self.h_dim(),
            self.v_dim()
        )
    }
}

impl FromIterator<Coord> for Shape {
    fn from_iter<T: IntoIterator<Item = Coord>>(iter: T) -> Self {
        Shape::from_cells(iter)
    }
}

fn ordered(a: Coord, b: Coord) -> (Coord, Coord) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// `v` sorted and deduplicated.
fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v.dedup();
    v
}

/// The first index at or after `from` whose cell is not below `target` (`cells.len()` if
/// none): a forward cursor over sorted cells.
fn seek(cells: &[Coord], mut from: usize, target: Coord) -> usize {
    while from < cells.len() && cells[from] < target {
        from += 1;
    }
    from
}

/// The cell indices of each edge's ends, in edge order, or `None` for an edge that does
/// not join two adjacent cells of `cells`. Both lists must be sorted, with every edge
/// `(a, b)` ordered `a <= b`.
///
/// The lower ends are non-decreasing; and the upper end of an adjacent pair is its lower
/// end plus one of the three `UP_STEPS`, so per step the upper ends are non-decreasing
/// too. One forward cursor for the lower ends and one per step for the upper ends find
/// every index in a single pass over the cells.
fn locate_ends<'a>(
    cells: &'a [Coord],
    edges: &'a [(Coord, Coord)],
) -> impl Iterator<Item = Option<(usize, usize)>> + 'a {
    let mut lower = 0;
    let mut upper = [0; 3];
    edges.iter().map(move |&(a, b)| {
        if !a.is_adjacent(b) {
            return None;
        }
        let d = b - a;
        let step = usize::from(d.y == 1) + 2 * usize::from(d.x == 1);
        lower = seek(cells, lower, a);
        upper[step] = seek(cells, upper[step], b);
        (cells.get(lower) == Some(&a) && cells.get(upper[step]) == Some(&b))
            .then_some((lower, upper[step]))
    })
}

/// The root of `i` in a union-find parent array, halving the path on the way.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// Number of grid lines from `lo` to `hi` inclusive.
fn span(lo: i32, hi: i32) -> u64 {
    u64::from(hi.abs_diff(lo)) + 1
}

/// Derives a direction from cell `a` to adjacent cell `b`, if they are adjacent.
#[must_use]
pub fn direction_between(a: Coord, b: Coord) -> Option<Dir> {
    Dir::from_unit(b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeSet, VecDeque};
    use std::hash::{Hash, Hasher};

    fn l_shape() -> Shape {
        Shape::from_cells([
            Coord::new2(0, 0),
            Coord::new2(0, 1),
            Coord::new2(0, 2),
            Coord::new2(1, 0),
        ])
    }

    #[test]
    fn from_cells_connects_adjacent() {
        let s = l_shape();
        assert_eq!(s.len(), 4);
        assert_eq!(s.edge_count(), 3);
        assert!(s.is_connected());
        assert!(s.contains_edge(Coord::new2(0, 0), Coord::new2(1, 0)));
        assert!(!s.contains_edge(Coord::new2(0, 2), Coord::new2(1, 0)));
    }

    #[test]
    fn edges_define_connectivity() {
        // Two adjacent cells without an edge are disconnected.
        let s = Shape::from_cells_and_edges([Coord::new2(0, 0), Coord::new2(1, 0)], []).unwrap();
        assert!(!s.is_connected());
        assert_eq!(s.components().len(), 2);
    }

    #[test]
    fn insert_edge_validation() {
        let mut s = Shape::new();
        s.insert_cell(Coord::new2(0, 0));
        s.insert_cell(Coord::new2(2, 0));
        s.insert_cell(Coord::new2(1, 0));
        assert!(matches!(
            s.insert_edge(Coord::new2(0, 0), Coord::new2(2, 0)),
            Err(GeometryError::NotAdjacent(_, _))
        ));
        assert!(matches!(
            s.insert_edge(Coord::new2(0, 0), Coord::new2(0, 1)),
            Err(GeometryError::MissingCell(_))
        ));
        assert!(s.insert_edge(Coord::new2(0, 0), Coord::new2(1, 0)).is_ok());
        assert_eq!(s.edge_count(), 1);
    }

    #[test]
    fn dimensions() {
        let s = l_shape();
        assert_eq!(s.h_dim(), 2);
        assert_eq!(s.v_dim(), 3);
        assert_eq!(s.max_dim(), 3);
        assert_eq!(s.min_dim(), 2);
        assert!(s.is_planar());
        assert_eq!(Shape::new().max_dim(), 0);
    }

    #[test]
    fn congruence_under_isometry() {
        let s = l_shape();
        let moved = s.translated(Coord::new2(10, -4));
        assert!(s.congruent(&moved));
        let rotated = s
            .rotated(Rotation::quarter_turn_ccw())
            .translated(Coord::new2(3, 3));
        assert!(s.congruent(&rotated));
        let other = Shape::from_cells([
            Coord::new2(0, 0),
            Coord::new2(0, 1),
            Coord::new2(0, 2),
            Coord::new2(1, 2),
        ]);
        // The mirror image of an L is congruent to it only via rotation in 2D? No: an L
        // tromino's mirror cannot be reached by planar rotations.
        assert!(!s.congruent(&other) || s.canonical() == other.canonical());
    }

    #[test]
    fn rectangle_and_line_predicates() {
        let line = Shape::from_cells((0..5).map(|x| Coord::new2(x, 0)));
        assert!(line.is_line(5));
        assert!(!line.is_line(4));
        let vline = line.rotated(Rotation::quarter_turn_ccw());
        assert!(vline.is_line(5));

        let rect = Shape::from_cells((0..3).flat_map(|x| (0..2).map(move |y| Coord::new2(x, y))));
        assert!(rect.is_full_rectangle(3, 2));
        assert!(rect.is_full_rectangle(2, 3));
        assert!(!rect.is_full_rectangle(3, 3));
        assert!(!rect.is_full_square(3));

        let square = Shape::from_cells((0..3).flat_map(|x| (0..3).map(move |y| Coord::new2(x, y))));
        assert!(square.is_full_square(3));
    }

    #[test]
    fn not_full_rectangle_when_edge_missing() {
        let mut cells: Vec<Coord> = (0..2)
            .flat_map(|x| (0..2).map(move |y| Coord::new2(x, y)))
            .collect();
        cells.sort();
        let full = Shape::from_cells(cells.clone());
        assert!(full.is_full_square(2));
        // Remove one edge: still connected but not fully bonded.
        let mut edges: Vec<(Coord, Coord)> = full.edges().collect();
        edges.pop();
        let partial = Shape::from_cells_and_edges(cells, edges).unwrap();
        assert!(!partial.is_full_square(2));
    }

    #[test]
    fn union_and_overlap() {
        let a = Shape::from_cells([Coord::new2(0, 0), Coord::new2(1, 0)]);
        let b = Shape::from_cells([Coord::new2(1, 0), Coord::new2(2, 0)]);
        let c = Shape::from_cells([Coord::new2(5, 5)]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(u.is_connected());
    }

    #[test]
    fn components_split() {
        let mut s = l_shape();
        s.insert_cell(Coord::new2(10, 10));
        s.insert_cell(Coord::new2(10, 11));
        s.insert_edge(Coord::new2(10, 10), Coord::new2(10, 11))
            .unwrap();
        let comps = s.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps.iter().map(Shape::len).sum::<usize>(), 6);
        assert!(comps.iter().all(Shape::is_connected));
    }

    #[test]
    fn canonical_is_idempotent() {
        let s = l_shape().translated(Coord::new2(-7, 9)).rotated_cw();
        assert_eq!(s.canonical(), s.canonical().canonical());
    }

    #[test]
    fn direction_between_cells() {
        assert_eq!(
            direction_between(Coord::new2(0, 0), Coord::new2(0, 1)),
            Some(Dir::Up)
        );
        assert_eq!(
            direction_between(Coord::new2(0, 0), Coord::new2(2, 0)),
            None
        );
    }

    #[test]
    fn full_rectangle_counts_do_not_overflow() {
        assert!(!Shape::new().is_full_rectangle(1 << 16, 1 << 16));
        assert!(!Shape::new().is_full_rectangle(u32::MAX, u32::MAX));
        assert!(Shape::new().is_full_square(0));
        assert!(!Shape::new().is_full_rectangle(0, 3));
        assert!(Shape::from_cells([Coord::new2(4, -4)]).is_full_square(1));
    }

    /// A seeded splitmix64 stream, so the property tests need no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn shuffle<T>(&mut self, v: &mut [T]) {
            for i in (1..v.len()).rev() {
                v.swap(i, self.below(i + 1));
            }
        }
    }

    /// The reference model: the cells and edges as ordered sets, with every predicate
    /// answered by breadth-first search and explicit set comparison.
    struct Reference {
        cells: BTreeSet<Coord>,
        edges: BTreeSet<(Coord, Coord)>,
    }

    impl Reference {
        fn new(cells: &[Coord], edges: &[(Coord, Coord)]) -> Reference {
            Reference {
                cells: cells.iter().copied().collect(),
                edges: edges.iter().map(|&(a, b)| ordered(a, b)).collect(),
            }
        }

        fn components(&self) -> Vec<BTreeSet<Coord>> {
            let mut remaining = self.cells.clone();
            let mut out = Vec::new();
            while let Some(&start) = remaining.iter().next() {
                remaining.remove(&start);
                let mut comp = BTreeSet::from([start]);
                let mut queue = VecDeque::from([start]);
                while let Some(c) = queue.pop_front() {
                    for n in c.neighbors3() {
                        if self.edges.contains(&ordered(c, n)) && remaining.remove(&n) {
                            comp.insert(n);
                            queue.push_back(n);
                        }
                    }
                }
                out.push(comp);
            }
            out
        }

        fn is_line(&self, len: usize) -> bool {
            let Some(&min) = self.cells.iter().next() else {
                return false;
            };
            let along = |step: Coord, k: usize| {
                let k = k as i32;
                min + Coord::new(step.x * k, step.y * k, step.z * k)
            };
            self.cells.len() == len
                && UP_STEPS.iter().any(|&step| {
                    let cells: BTreeSet<Coord> = (0..len).map(|k| along(step, k)).collect();
                    let edges: BTreeSet<(Coord, Coord)> = (1..len)
                        .map(|k| (along(step, k - 1), along(step, k)))
                        .collect();
                    self.cells == cells && self.edges == edges
                })
        }

        fn is_full_rectangle(&self, w: u32, h: u32) -> bool {
            if self.cells.is_empty() {
                return w == 0 && h == 0;
            }
            let min_x = self.cells.iter().map(|c| c.x).min().unwrap();
            let min_y = self.cells.iter().map(|c| c.y).min().unwrap();
            [(w, h), (h, w)].iter().any(|&(a, b)| {
                let cells: BTreeSet<Coord> = (0..a as i32)
                    .flat_map(|i| (0..b as i32).map(move |j| Coord::new2(min_x + i, min_y + j)))
                    .collect();
                let edges: BTreeSet<(Coord, Coord)> = cells
                    .iter()
                    .flat_map(|&c| c.neighbors3().into_iter().map(move |n| ordered(c, n)))
                    .filter(|(a, b)| cells.contains(a) && cells.contains(b))
                    .collect();
                self.cells == cells && self.edges == edges
            })
        }
    }

    /// A random shape: cells drawn from a small box at a random offset (one layer, or
    /// two in 3D), and a random subset of their adjacent pairs as edges. Dense draws make
    /// full rectangles and single-row boxes make lines, so both predicates see positives.
    fn random_shape(rng: &mut Rng, three_d: bool) -> (Vec<Coord>, Vec<(Coord, Coord)>) {
        let (bx, by) = (1 + rng.below(5) as i32, 1 + rng.below(5) as i32);
        let bz = if three_d { 1 + rng.below(2) as i32 } else { 1 };
        let offset = Coord::new(
            rng.below(9) as i32 - 4,
            rng.below(9) as i32 - 4,
            if three_d { rng.below(5) as i32 - 2 } else { 0 },
        );
        let cell_odds = [50, 85, 100][rng.below(3)];
        let edge_odds = [40, 90, 100][rng.below(3)];
        let mut cells = Vec::new();
        for x in 0..bx {
            for y in 0..by {
                for z in 0..bz {
                    if rng.chance(cell_odds) {
                        cells.push(Coord::new(x, y, z) + offset);
                    }
                }
            }
        }
        let present: BTreeSet<Coord> = cells.iter().copied().collect();
        let mut edges = Vec::new();
        for &c in &cells {
            for step in UP_STEPS {
                if present.contains(&(c + step)) && rng.chance(edge_odds) {
                    edges.push((c, c + step));
                }
            }
        }
        (cells, edges)
    }

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn predicates_agree_with_a_breadth_first_reference() {
        let mut rng = Rng(0x5EED_0001);
        let mut seen = [0usize; 3];
        for round in 0..600 {
            let (cells, edges) = random_shape(&mut rng, round % 2 == 1);
            let shape = Shape::from_cells_and_edges(cells.clone(), edges.clone()).unwrap();
            let reference = Reference::new(&cells, &edges);
            let ref_components = reference.components();

            assert_eq!(shape.is_connected(), ref_components.len() <= 1, "{shape:?}");
            let components = shape.components();
            assert_eq!(components.len(), ref_components.len(), "{shape:?}");
            for (comp, ref_cells) in components.iter().zip(&ref_components) {
                assert_eq!(&comp.cells().collect::<BTreeSet<_>>(), ref_cells);
                let ref_edges: Vec<(Coord, Coord)> = reference
                    .edges
                    .iter()
                    .filter(|(a, _)| ref_cells.contains(a))
                    .copied()
                    .collect();
                assert_eq!(comp.edges().collect::<Vec<_>>(), ref_edges);
                assert!(comp.is_connected());
            }

            let n = cells.len();
            for len in [n.saturating_sub(1), n, n + 1] {
                assert_eq!(
                    shape.is_line(len),
                    reference.is_line(len),
                    "{shape:?} len {len}"
                );
            }
            let (min, max) = shape.bounding_box().unwrap_or_default();
            let (w, h) = (shape.h_dim(), shape.v_dim());
            let candidates = [(w, h), (h, w), (w + 1, h), (w, h.saturating_sub(1)), (0, 0)];
            for (w, h) in candidates {
                assert_eq!(
                    shape.is_full_rectangle(w, h),
                    reference.is_full_rectangle(w, h),
                    "{shape:?} {w}×{h} box {min:?}..{max:?}"
                );
            }
            seen[0] += usize::from(shape.is_line(n));
            seen[1] += usize::from(shape.is_full_rectangle(w, h));
            seen[2] += usize::from(ref_components.len() > 1);

            // Storage order, ordering and hashing are those of the ordered sets.
            assert!(shape.cells().eq(reference.cells.iter().copied()));
            assert!(shape.edges().eq(reference.edges.iter().copied()));
            assert_eq!(
                hash_of(&shape),
                hash_of(&(&reference.cells, &reference.edges))
            );
            let full = Shape::from_cells(cells.clone());
            let full_reference = Reference::new(&cells, &full.edges);
            assert_eq!(
                shape.cmp(&full),
                (&reference.cells, &reference.edges)
                    .cmp(&(&full_reference.cells, &full_reference.edges))
            );
            for &c in &cells {
                for nb in c.neighbors3() {
                    assert_eq!(full.contains_edge(c, nb), reference.cells.contains(&nb));
                    assert_eq!(
                        shape.contains_edge(c, nb),
                        reference.edges.contains(&ordered(c, nb))
                    );
                }
            }
        }
        // Every predicate met both answers.
        assert!(seen.iter().all(|&k| k > 10), "{seen:?}");
    }

    #[test]
    fn bulk_construction_equals_incremental_construction() {
        let mut rng = Rng(0x5EED_0002);
        for round in 0..600 {
            let (cells, edges) = random_shape(&mut rng, round % 2 == 1);
            // Repeated cells and edges, edges in both orientations, any input order.
            let mut cell_input = cells.clone();
            cell_input.extend(cells.iter().filter(|_| rng.chance(20)));
            rng.shuffle(&mut cell_input);
            let mut edge_input: Vec<(Coord, Coord)> = edges
                .iter()
                .map(|&(a, b)| if rng.chance(50) { (b, a) } else { (a, b) })
                .collect();
            edge_input.extend(edges.iter().filter(|_| rng.chance(20)));
            rng.shuffle(&mut edge_input);
            // Sometimes a bad edge or two: to a missing cell, or between distant cells.
            if !cells.is_empty() && rng.chance(40) {
                for _ in 0..1 + rng.below(2) {
                    let a = cells[rng.below(cells.len())];
                    let b = cells[rng.below(cells.len())];
                    let bad = match rng.below(3) {
                        0 => (a, a + Coord::new(0, 0, 9)),
                        1 => (a + Coord::new(9, 0, 0), a),
                        _ => (a, b),
                    };
                    let at = rng.below(edge_input.len() + 1);
                    edge_input.insert(at, bad);
                }
            }

            let incremental = |edge_input: &[(Coord, Coord)]| {
                let mut shape = Shape::new();
                for &c in &cell_input {
                    shape.insert_cell(c);
                }
                edge_input
                    .iter()
                    .try_for_each(|&(a, b)| shape.insert_edge(a, b))
                    .map(|()| shape)
            };
            let bulk = Shape::from_cells_and_edges(cell_input.clone(), edge_input.clone());
            let expected = incremental(&edge_input);
            assert_eq!(bulk, expected);
            if let Ok(shape) = bulk {
                assert_eq!(hash_of(&shape), hash_of(expected.as_ref().unwrap()));
            }
            // The same edges already canonical (strictly ascending, each from its lower
            // end) take the path that keeps the list as given: same shape, same first
            // bad edge.
            let canonical = sorted(edge_input.iter().map(|&(a, b)| ordered(a, b)).collect());
            let bulk = Shape::from_cells_and_edges(cell_input.clone(), canonical.clone());
            assert_eq!(bulk, incremental(&canonical));
        }
    }

    #[test]
    fn rotation_and_union_keep_the_sorted_storage() {
        let mut rng = Rng(0x5EED_0003);
        for round in 0..200 {
            let (cells, edges) = random_shape(&mut rng, round % 2 == 1);
            let shape = Shape::from_cells_and_edges(cells, edges).unwrap();
            let dim = if round % 2 == 1 { Dim::Three } else { Dim::Two };
            for rot in Rotation::all(dim) {
                let rotated = shape.rotated(rot);
                let expected = Shape::from_cells_and_edges(
                    shape.cells().map(|c| rot.apply_coord(c)),
                    shape
                        .edges()
                        .map(|(a, b)| (rot.apply_coord(a), rot.apply_coord(b))),
                )
                .unwrap();
                assert_eq!(rotated, expected);
            }
            let moved = shape.translated(Coord::new(2, -1, 0));
            let union = shape.union(&moved);
            let expected = Shape::from_cells_and_edges(
                shape.cells().chain(moved.cells()),
                shape.edges().chain(moved.edges()),
            )
            .unwrap();
            assert_eq!(union, expected);
        }
    }
}
