//! Shape self-replication (Section 7).
//!
//! An arbitrary connected 2D shape `G`, pre-assembled in the solution with a unique
//! leader on one of its nodes, is replicated into a second, disjoint, congruent copy
//! using free nodes from the solution. The protocol follows the paper's Approach 1:
//!
//! 1. **Squaring** — `G` is completed to its minimum enclosing rectangle `R_G` by purely
//!    *local* rules (Proposition 1): a cell that learns from a bonded neighbour that the
//!    position diagonally across a missing corner is occupied, marks the corresponding
//!    port as accepting, and the next free node the scheduler brings there is attached
//!    as a dummy (off) cell. No leader involvement is needed for this phase.
//! 2. **Scan** — the leader walks `R_G` (waiting, where necessary, for the squaring rules
//!    to fill the cell it wants to step on) and records the on/off label of every cell in
//!    its local memory — the unbounded leader memory the paper grants in Section 5.1.
//!    Completing the walk doubles as the leader's detection that squaring has finished
//!    (the paper's rectangle-traversal check).
//! 3. **Copy** — the leader builds a second `w × h` rectangle directly to the right of the
//!    original, attaching free nodes one by one and labelling each with the recorded
//!    image. The two rectangles share exactly one bond (the seam used for the first
//!    attachment).
//! 4. **Release / de-squaring** — after placing the last replica cell the leader switches
//!    to the release phase, which spreads as a wave: bonds between two released cells are
//!    deactivated when at least one endpoint is off (de-squaring) or when the two cells
//!    belong to different copies (the seam). What remains are two disjoint congruent
//!    copies of `G` plus isolated dummy nodes.
//!
//! Two substitutions depart from the paper: cells carry their coordinates in their
//! states, and the leader holds the image in its local memory instead of shifting it
//! column by column. Both preserve the phase structure, the interaction pattern, the
//! population requirement `2·|R_G|` and the waste `2·(|R_G| − |G|)` of Section 7.

use nc_core::{NodeId, Protocol, Simulation, SimulationConfig, Transition};
use nc_geometry::{Coord, Dim, Dir, Shape};

/// Per-cell bookkeeping shared by settled cells and the leader's current cell.
#[derive(Clone, PartialEq, Debug)]
pub struct CellInfo {
    /// The cell's position; original cells occupy `0 ≤ x < w`, replica cells `w ≤ x < 2w`.
    pub pos: Coord,
    /// Whether the cell is an *on* cell (part of `G` / its copy) or a dummy.
    pub on: bool,
    /// Whether the cell belongs to the replica rectangle.
    pub replica: bool,
    /// Whether the release wave has reached this cell.
    pub released: bool,
    /// Which of the four neighbouring positions this cell knows to be occupied.
    occ: [bool; 4],
    /// Which of the four ports currently accept the attachment of a free node
    /// (the local squaring rule of Proposition 1).
    accept: [bool; 4],
}

impl CellInfo {
    fn new(pos: Coord, on: bool, replica: bool) -> CellInfo {
        CellInfo {
            pos,
            on,
            replica,
            released: false,
            occ: [false; 4],
            accept: [false; 4],
        }
    }
}

/// The leader's program counter and local memory.
#[derive(Clone, PartialEq, Debug)]
pub struct LeaderInfo {
    /// Current phase.
    pub phase: LeaderPhase,
    /// The scanned image of `R_G` in row-major order (`y · w + x`), filled during the
    /// scan phase.
    image: Vec<bool>,
}

/// The leader's phases.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeaderPhase {
    /// Walking towards the bottom-left corner of `R_G`.
    Descend,
    /// Scanning `R_G` in boustrophedon order; the value is the index of the cell the
    /// leader currently occupies.
    Scan(u64),
    /// Walking right along the top row towards the seam column.
    Return,
    /// Building the replica; the value is the index of the next replica cell to attach.
    Build(u64),
}

/// States of [`ShapeReplication`].
#[derive(Clone, PartialEq, Debug)]
pub enum SrState {
    /// A free node.
    Free,
    /// A settled cell of either rectangle.
    Cell(CellInfo),
    /// The cell currently carrying the leader.
    Leader(CellInfo, LeaderInfo),
}

impl SrState {
    /// The cell bookkeeping of a settled or leader-carrying cell.
    #[must_use]
    pub fn cell(&self) -> Option<&CellInfo> {
        match self {
            SrState::Cell(c) | SrState::Leader(c, _) => Some(c),
            SrState::Free => None,
        }
    }
}

/// The Section 7 self-replication protocol (Approach 1).
#[derive(Clone, Debug)]
pub struct ShapeReplication {
    shape: Shape,
    width: u32,
    height: u32,
    cells: Vec<Coord>,
}

impl ShapeReplication {
    /// Creates the protocol for replicating `shape`.
    ///
    /// The shape is normalized so that the bottom-left corner of its enclosing rectangle
    /// is the origin. The first `shape.len()` nodes of the population are the shape's
    /// cells (in sorted coordinate order) and node 0 carries the leader; use
    /// [`seeded_simulation`] to also install the geometric placement.
    ///
    /// # Panics
    /// Panics if the shape is empty, not connected, or not planar.
    #[must_use]
    pub fn new(shape: &Shape) -> ShapeReplication {
        assert!(!shape.is_empty(), "cannot replicate an empty shape");
        assert!(shape.is_connected(), "the shape must be connected");
        assert!(shape.is_planar(), "Section 7 replicates 2D shapes");
        let normalized = shape.normalized();
        let cells: Vec<Coord> = normalized.cells().collect();
        ShapeReplication {
            width: normalized.h_dim(),
            height: normalized.v_dim(),
            shape: normalized,
            cells,
        }
    }

    /// The width `w` of the enclosing rectangle `R_G`.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The height `h` of the enclosing rectangle `R_G`.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The number of cells of `R_G`.
    #[must_use]
    pub fn rectangle_size(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// The population size required for a successful replication: `2·|R_G|`
    /// (Section 7.1).
    #[must_use]
    pub fn required_population(&self) -> usize {
        2 * self.rectangle_size()
    }

    /// The normalized original shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The coordinate of the original cell assigned to `node` (nodes `0..shape.len()`).
    #[must_use]
    pub fn cell_of_node(&self, node: usize) -> Option<Coord> {
        self.cells.get(node).copied()
    }

    /// Boustrophedon scan order over the `w × h` rectangle: index `i` ↦ coordinates.
    fn scan_coord(&self, i: u64) -> Coord {
        let w = u64::from(self.width);
        let row = (i / w) as i32;
        let col = (i % w) as i32;
        let x = if row % 2 == 0 {
            col
        } else {
            self.width as i32 - 1 - col
        };
        Coord::new2(x, row)
    }

    /// Build order over the replica rectangle, starting at `(w, h − 1)` next to the seam
    /// and sweeping back and forth downwards.
    fn build_coord(&self, i: u64) -> Coord {
        let w = u64::from(self.width);
        let row_from_top = (i / w) as i32;
        let col = (i % w) as i32;
        let y = self.height as i32 - 1 - row_from_top;
        let x = if row_from_top % 2 == 0 {
            self.width as i32 + col
        } else {
            2 * self.width as i32 - 1 - col
        };
        Coord::new2(x, y)
    }

    fn rect_cells(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    fn image_index(&self, pos: Coord) -> usize {
        (pos.y as u32 * self.width + pos.x as u32) as usize
    }

    /// Moves the leader from `from` onto `to`, recording `to`'s label when scanning and
    /// advancing the program counter.
    fn advance_leader(
        &self,
        from: &CellInfo,
        info: &LeaderInfo,
        to: &CellInfo,
    ) -> Transition<SrState> {
        let mut info = info.clone();
        match info.phase {
            LeaderPhase::Descend => {
                if to.pos == Coord::ORIGIN {
                    info.image[self.image_index(to.pos)] = to.on;
                    info.phase = if self.rect_cells() == 1 {
                        LeaderPhase::Build(0)
                    } else {
                        LeaderPhase::Scan(0)
                    };
                }
            }
            LeaderPhase::Scan(i) => {
                info.image[self.image_index(to.pos)] = to.on;
                let next = i + 1;
                if next == self.rect_cells() - 1 {
                    // `to` is the last cell of the scan.
                    info.phase = if to.pos.x == self.width as i32 - 1 {
                        LeaderPhase::Build(0)
                    } else {
                        LeaderPhase::Return
                    };
                } else {
                    info.phase = LeaderPhase::Scan(next);
                }
            }
            LeaderPhase::Return => {
                if to.pos.x == self.width as i32 - 1 {
                    info.phase = LeaderPhase::Build(0);
                }
            }
            LeaderPhase::Build(_) => {
                unreachable!("build never moves the leader onto existing cells")
            }
        }
        Transition {
            a: SrState::Cell(from.clone()),
            b: SrState::Leader(to.clone(), info),
            bond: true,
        }
    }

    /// The position the leader wants to move to (or `None` if it is attaching / done).
    fn leader_target(&self, cell: &CellInfo, info: &LeaderInfo) -> Option<Coord> {
        match info.phase {
            LeaderPhase::Descend => {
                if cell.pos.x > 0 {
                    Some(cell.pos + Dir::Left.unit())
                } else if cell.pos.y > 0 {
                    Some(cell.pos + Dir::Down.unit())
                } else {
                    None
                }
            }
            LeaderPhase::Scan(i) => Some(self.scan_coord(i + 1)),
            LeaderPhase::Return => Some(cell.pos + Dir::Right.unit()),
            LeaderPhase::Build(_) => None,
        }
    }

    /// Synchronises occupancy and acceptance knowledge between two bonded adjacent cells
    /// (the local squaring machinery of Proposition 1). Returns the updated pair if
    /// anything changed.
    fn sync_cells(a: &CellInfo, dir_ab: Dir, b: &CellInfo) -> Option<(CellInfo, CellInfo)> {
        let mut na = a.clone();
        let mut nb = b.clone();
        let mut changed = false;
        if !na.occ[dir_ab.index()] {
            na.occ[dir_ab.index()] = true;
            changed = true;
        }
        if !nb.occ[dir_ab.opposite().index()] {
            nb.occ[dir_ab.opposite().index()] = true;
            changed = true;
        }
        // A learns from B (its neighbour in direction `dir_ab`): for every direction `g`
        // perpendicular to the a–b axis, if B knows the cell at `B + g` exists, then the
        // position `A + g` has two perpendicular occupied neighbours (A itself and
        // `B + g`) and may accept a free node.
        for g in [dir_ab.clockwise(), dir_ab.counter_clockwise()] {
            if b.occ[g.index()] && !na.accept[g.index()] {
                na.accept[g.index()] = true;
                changed = true;
            }
            if a.occ[g.index()] && !nb.accept[g.index()] {
                nb.accept[g.index()] = true;
                changed = true;
            }
        }
        changed.then_some((na, nb))
    }

    /// Whether a bond between two released cells should be deactivated: the seam between
    /// the two rectangles, or any bond with an off endpoint (de-squaring).
    fn should_release(a: &CellInfo, b: &CellInfo) -> bool {
        a.released && b.released && (a.replica != b.replica || !a.on || !b.on)
    }
}

impl Protocol for ShapeReplication {
    type State = SrState;

    fn dim(&self) -> Dim {
        Dim::Two
    }

    fn initial_state(&self, node: NodeId, _n: usize) -> SrState {
        let idx = node.index();
        match self.cells.get(idx) {
            Some(&pos) => {
                let cell = CellInfo::new(pos, true, false);
                if idx == 0 {
                    SrState::Leader(
                        cell,
                        LeaderInfo {
                            phase: LeaderPhase::Descend,
                            image: vec![false; self.rectangle_size()],
                        },
                    )
                } else {
                    SrState::Cell(cell)
                }
            }
            None => SrState::Free,
        }
    }

    #[allow(clippy::too_many_lines)]
    fn transition(
        &self,
        a: &SrState,
        pa: Dir,
        b: &SrState,
        pb: Dir,
        bonded: bool,
    ) -> Option<Transition<SrState>> {
        let t = |a, b, bond| Some(Transition { a, b, bond });
        // --- Leader program --------------------------------------------------------
        if let SrState::Leader(cell, info) = a {
            match info.phase {
                LeaderPhase::Descend | LeaderPhase::Scan(_) | LeaderPhase::Return => {
                    // Special case: the leader starts on the origin of a 1-cell walk.
                    if info.phase == LeaderPhase::Descend
                        && self.leader_target(cell, info).is_none()
                    {
                        let mut ni = info.clone();
                        ni.image[self.image_index(cell.pos)] = cell.on;
                        ni.phase = if self.rect_cells() == 1 {
                            LeaderPhase::Build(0)
                        } else {
                            LeaderPhase::Scan(0)
                        };
                        // Re-check the scan end for 1×k rectangles handled by Scan moves.
                        return t(SrState::Leader(cell.clone(), ni), b.clone(), bonded);
                    }
                    let target = self.leader_target(cell, info)?;
                    // The leader steps onto the adjacent target cell; if the bond between
                    // the two is not active yet it is activated in the same stroke (the
                    // rigidity rule does not cover the leader's own cell).
                    if pb == pa.opposite() && target == cell.pos + pa.unit() {
                        if let SrState::Cell(other) = b {
                            if other.pos == target {
                                return Some(self.advance_leader(cell, info, other));
                            }
                        }
                    }
                    return None;
                }
                LeaderPhase::Build(i) => {
                    if i >= self.rect_cells() {
                        // Everything built: the leader dissolves into a released cell,
                        // starting the release wave.
                        let mut released = cell.clone();
                        released.released = true;
                        return t(SrState::Cell(released), b.clone(), bonded);
                    }
                    let target = self.build_coord(i);
                    if !bonded
                        && *b == SrState::Free
                        && pb == pa.opposite()
                        && target == cell.pos + pa.unit()
                    {
                        let on = info.image
                            [self.image_index(Coord::new2(target.x - self.width as i32, target.y))];
                        let new_cell = CellInfo::new(target, on, true);
                        let mut ni = info.clone();
                        ni.phase = LeaderPhase::Build(i + 1);
                        return t(
                            SrState::Cell(cell.clone()),
                            SrState::Leader(new_cell, ni),
                            true,
                        );
                    }
                    return None;
                }
            }
        }
        // --- Settled-cell rules ------------------------------------------------------
        match (a, b) {
            // Squaring: a cell accepting attachments through port `pa` recruits a free
            // node as an off dummy of the original rectangle.
            (SrState::Cell(cell), SrState::Free)
                if !bonded
                    && !cell.replica
                    && !cell.released
                    && cell.accept[pa.index()]
                    && pb == pa.opposite() =>
            {
                let mut na = cell.clone();
                na.occ[pa.index()] = true;
                let mut nb = CellInfo::new(cell.pos + pa.unit(), false, false);
                nb.occ[pa.opposite().index()] = true;
                t(SrState::Cell(na), SrState::Cell(nb), true)
            }
            (SrState::Cell(ca), SrState::Cell(cb)) => {
                let adjacent = cb.pos == ca.pos + pa.unit() && pb == pa.opposite();
                if !adjacent {
                    return None;
                }
                if !bonded {
                    // Rigidity: adjacent cells of the same rectangle bond (unless the
                    // release wave already reached both and one of them is off).
                    if ca.replica == cb.replica && !ShapeReplication::should_release(ca, cb) {
                        return t(a.clone(), b.clone(), true);
                    }
                    return None;
                }
                // Release wave: a released cell releases its bonded neighbour.
                if ca.released != cb.released {
                    let mut na = ca.clone();
                    let mut nb = cb.clone();
                    na.released = true;
                    nb.released = true;
                    let keep = !ShapeReplication::should_release(&na, &nb);
                    return t(SrState::Cell(na), SrState::Cell(nb), keep);
                }
                // De-squaring / seam cut between two released cells.
                if ShapeReplication::should_release(ca, cb) {
                    return t(a.clone(), b.clone(), false);
                }
                // Squaring knowledge exchange (Proposition 1).
                if !ca.released && !cb.released && ca.replica == cb.replica {
                    let dir_ab = pa;
                    if let Some((na, nb)) = ShapeReplication::sync_cells(ca, dir_ab, cb) {
                        return t(SrState::Cell(na), SrState::Cell(nb), true);
                    }
                }
                None
            }
            // The leader's cell also takes part in the squaring knowledge exchange, so
            // that small shapes where the leader sits on the only detection corner still
            // square up. (Handled through the symmetric call: a = Cell, b = Leader.)
            (SrState::Cell(ca), SrState::Leader(cb, info)) if bonded => {
                let adjacent = cb.pos == ca.pos + pa.unit() && pb == pa.opposite();
                if !adjacent || ca.released {
                    return None;
                }
                if let Some((na, nb)) = ShapeReplication::sync_cells(ca, pa, cb) {
                    return t(SrState::Cell(na), SrState::Leader(nb, info.clone()), true);
                }
                None
            }
            _ => None,
        }
    }

    fn is_output(&self, state: &SrState) -> bool {
        match state {
            SrState::Cell(c) => c.on,
            SrState::Leader(c, _) => c.on,
            SrState::Free => false,
        }
    }

    fn name(&self) -> &str {
        "shape-replication"
    }
}

/// Creates a simulation whose initial configuration contains the pre-assembled original
/// shape (a spanning tree of its adjacencies is bonded; the remaining bonds are added by
/// the protocol's rigidity rule) plus `n - shape.len()` free nodes.
///
/// # Panics
/// Panics if `n < shape.len()` or the shape violates [`ShapeReplication::new`]'s
/// requirements.
#[must_use]
pub fn seeded_simulation(shape: &Shape, n: usize, seed: u64) -> Simulation<ShapeReplication> {
    let protocol = ShapeReplication::new(shape);
    assert!(
        n >= protocol.shape().len(),
        "population smaller than the shape"
    );
    let cells: Vec<Coord> = protocol.shape().cells().collect();
    let index_of = |c: Coord| cells.iter().position(|&x| x == c).expect("cell exists");
    let mut sim = Simulation::new(protocol, SimulationConfig::new(n).with_seed(seed));
    // Bond a BFS spanning tree of the shape's adjacencies.
    let mut visited = vec![false; cells.len()];
    let mut queue = std::collections::VecDeque::from([0usize]);
    visited[0] = true;
    while let Some(i) = queue.pop_front() {
        let here = cells[i];
        for dir in Dim::Two.dirs() {
            let next = here + dir.unit();
            if !sim.world().protocol().shape().contains_cell(next) {
                continue;
            }
            let j = index_of(next);
            if visited[j] {
                continue;
            }
            visited[j] = true;
            sim.world_mut()
                .setup_bond(
                    NodeId::new(i as u32),
                    *dir,
                    NodeId::new(j as u32),
                    dir.opposite(),
                )
                .expect("seed bond placement is consistent");
            queue.push_back(j);
        }
    }
    debug_assert!(sim.world().check_invariants());
    sim
}

/// Summary of a self-replication run (experiment E11).
#[derive(Clone, Debug)]
pub struct ReplicationReport {
    /// Population size.
    pub n: usize,
    /// Size of the original shape `|G|`.
    pub shape_size: usize,
    /// Size of the enclosing rectangle `|R_G|`.
    pub rectangle_size: usize,
    /// Number of disjoint copies congruent to `G` present at the end.
    pub copies: usize,
    /// Waste: settled nodes that are not part of either copy (`2·(|R_G| − |G|)` when the
    /// replication succeeds with the minimum population).
    pub waste: usize,
    /// Scheduler steps taken.
    pub steps: u64,
}

/// Runs a self-replication of `shape` on a population of `n` nodes.
///
/// # Panics
/// Panics if `n` is smaller than the shape (see [`seeded_simulation`]).
#[must_use]
pub fn replicate(shape: &Shape, n: usize, seed: u64) -> ReplicationReport {
    let mut sim = seeded_simulation(shape, n, seed);
    let expected = Shape::from_cells(shape.normalized().cells());
    let rectangle_size = sim.world().protocol().rectangle_size();
    let report = sim.run_until_stable();
    let copies = sim
        .world()
        .output_shapes()
        .iter()
        .filter(|s| s.congruent(&expected))
        .count();
    let settled = sim
        .world()
        .states()
        .filter(|s| !matches!(s, SrState::Free))
        .count();
    ReplicationReport {
        n,
        shape_size: shape.len(),
        rectangle_size,
        copies,
        waste: settled.saturating_sub(copies * shape.len()),
        steps: report.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_geometry::library;

    fn saturated(shape: &Shape) -> Shape {
        Shape::from_cells(shape.cells())
    }

    #[test]
    fn required_population_matches_the_paper() {
        let l = library::l_shape(3, 4);
        let p = ShapeReplication::new(&l);
        assert_eq!(p.width(), 3);
        assert_eq!(p.height(), 4);
        assert_eq!(p.rectangle_size(), 12);
        assert_eq!(p.required_population(), 24);
    }

    #[test]
    fn replicates_a_rectangle_without_squaring() {
        // A full rectangle needs no squaring: the population is exactly 2·|R_G|.
        let g = library::rectangle_shape(3, 2);
        let report = replicate(&g, 12, 5);
        assert_eq!(report.copies, 2, "expected two congruent copies");
        assert_eq!(report.waste, 0);
    }

    #[test]
    fn replicates_an_l_shape_with_squaring_waste() {
        let g = library::l_shape(3, 3);
        let p = ShapeReplication::new(&g);
        let n = p.required_population();
        let report = replicate(&g, n, 5);
        assert_eq!(report.copies, 2, "expected two congruent copies of the L");
        assert_eq!(report.waste, 2 * (p.rectangle_size() - g.len()));
    }

    #[test]
    fn replicates_a_plus_shape() {
        let g = library::plus_shape(1);
        let p = ShapeReplication::new(&g);
        let report = replicate(&g, p.required_population() + 2, 13);
        assert_eq!(report.copies, 2);
    }

    #[test]
    fn replicates_a_line() {
        let g = library::line_shape(4);
        let report = replicate(&g, 8, 3);
        assert_eq!(report.copies, 2);
        assert_eq!(report.waste, 0);
    }

    #[test]
    fn squaring_rule_is_local_and_sound() {
        // v knows u (below) which knows ur (right of u): v accepts an attachment to its
        // right, which is exactly the missing corner of Figure 10's detection triple.
        let mut u = CellInfo::new(Coord::new2(0, 0), true, false);
        u.occ[Dir::Right.index()] = true;
        let v = CellInfo::new(Coord::new2(0, 1), true, false);
        let (nv, _nu) =
            ShapeReplication::sync_cells(&v, Dir::Down, &u).expect("exchange is effective");
        assert!(nv.accept[Dir::Right.index()]);
        assert!(!nv.accept[Dir::Left.index()]);
    }

    #[test]
    fn scan_and_build_orders_cover_the_rectangles() {
        let p = ShapeReplication::new(&library::l_shape(3, 2));
        let scanned: std::collections::BTreeSet<Coord> =
            (0..p.rect_cells()).map(|i| p.scan_coord(i)).collect();
        assert_eq!(scanned.len(), p.rectangle_size());
        assert!(scanned
            .iter()
            .all(|c| c.x >= 0 && c.x < 3 && c.y >= 0 && c.y < 2));
        let built: std::collections::BTreeSet<Coord> =
            (0..p.rect_cells()).map(|i| p.build_coord(i)).collect();
        assert_eq!(built.len(), p.rectangle_size());
        assert!(built
            .iter()
            .all(|c| c.x >= 3 && c.x < 6 && c.y >= 0 && c.y < 2));
        // Consecutive cells of both walks are grid-adjacent.
        for i in 1..p.rect_cells() {
            assert!(p.scan_coord(i - 1).is_adjacent(p.scan_coord(i)));
            assert!(p.build_coord(i - 1).is_adjacent(p.build_coord(i)));
        }
        // The build walk starts next to the scan/return end position (the seam).
        assert!(p.build_coord(0).is_adjacent(Coord::new2(2, 1)));
    }

    #[test]
    fn copies_are_disjoint_and_saturated() {
        let g = library::u_shape(3, 3);
        let p = ShapeReplication::new(&g);
        let mut sim = seeded_simulation(&g, p.required_population(), 21);
        sim.run_until_stable();
        let outputs = sim.world().output_shapes();
        let expected = saturated(&g);
        let copies: Vec<&Shape> = outputs.iter().filter(|s| s.congruent(&expected)).collect();
        assert_eq!(copies.len(), 2);
        assert!(!copies[0].overlaps(copies[1]) || copies[0].cells().count() == 0);
        assert!(sim.world().check_invariants());
    }
}
