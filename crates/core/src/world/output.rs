//! The output shapes of a configuration.

use super::*;
use nc_geometry::Shape;

impl<P: Protocol> World<P> {
    /// The shape of the component containing `node`, expressed in the component frame.
    ///
    /// When `only_output` is set, only members in output states (and bonds between them)
    /// are included, matching the paper's definition of the output of a configuration.
    ///
    /// One pass over the component's cells collects them and each bond once, from its
    /// lower-coordinate endpoint. A dense component yields its cells in ascending
    /// order, so both lists reach [`Shape::from_cells_and_edges`] already sorted: its
    /// cell sort costs one linear pass, and it checks the edge order in one pass and
    /// keeps the list as given; a sparse one costs `O(k log k)` for `k` members.
    #[must_use]
    pub fn shape_of(&self, node: NodeId, only_output: bool) -> Shape {
        let comp = self.component(node);
        let comp_id = self.comp_of[node.index()];
        let included = |n: NodeId| !only_output || self.protocol.is_output(self.state(n));
        let mut cells = Vec::with_capacity(comp.len());
        let mut edges = Vec::with_capacity(comp.len());
        for (member, pos) in comp.iter() {
            if !included(member) {
                continue;
            }
            cells.push(pos);
            let first = edges.len();
            for &(peer, _) in self.geo[member.index()].links.iter().flatten() {
                let peer_pos = self.geo[peer.index()].pl.pos;
                if peer_pos > pos && self.comp_of[peer.index()] == comp_id && included(peer) {
                    edges.push((pos, peer_pos));
                }
            }
            // At most three bonds leave a cell upwards; keep them in order.
            edges[first..].sort_unstable();
        }
        Shape::from_cells_and_edges(cells, edges)
            .expect("bonded members of a component sit on adjacent cells")
    }

    /// The output shapes of the configuration: for every component, the subgraph induced
    /// by its output-state members, skipping components with no output members. Each
    /// shape is built by [`World::shape_of`], so the whole call is `O(n log n)`.
    #[must_use]
    pub fn output_shapes(&self) -> Vec<Shape> {
        let mut seen = vec![false; self.components.len()];
        let mut out = Vec::new();
        for node in self.nodes() {
            let cid = self.comp_of[node.index()];
            if seen[cid] {
                continue;
            }
            seen[cid] = true;
            let shape = self.shape_of(node, true);
            if !shape.is_empty() {
                out.push(shape);
            }
        }
        out
    }

    /// The largest output shape of the configuration (by number of cells), or the empty
    /// shape when no node is in an output state.
    #[must_use]
    pub fn output_shape(&self) -> Shape {
        self.output_shapes()
            .into_iter()
            .max_by_key(Shape::len)
            .unwrap_or_default()
    }
}
