//! `World::shape_of` and `World::output_shapes` against the construction they replaced:
//! every included member's cell inserted one at a time, then every bond between included
//! members inserted from both of its ends. Configurations are taken mid-run from
//! `GlobalLine`, `Square` and `CountingOnALine`, and from a hand-built component with two
//! adjacent but unbonded cells.

use shape_constructors::core::{NodeId, Protocol, Simulation, SimulationConfig, Transition, World};
use shape_constructors::geometry::{Dim, Dir, Shape};
use shape_constructors::protocols::counting_line::CountingOnALine;
use shape_constructors::protocols::line::GlobalLine;
use shape_constructors::protocols::square::Square;

/// The reference: the incremental, cell-by-cell and edge-by-edge construction.
fn incremental_shape_of<P: Protocol>(world: &World<P>, node: NodeId, only_output: bool) -> Shape {
    let comp = world.component(node);
    let included = |n: NodeId| !only_output || world.protocol().is_output(world.state(n));
    let mut shape = Shape::new();
    for (member, pos) in comp.iter() {
        if included(member) {
            shape.insert_cell(pos);
        }
    }
    for (member, pos) in comp.iter() {
        if !included(member) {
            continue;
        }
        for &port in world.dim().dirs() {
            if let Some((peer, _)) = world.bonded_peer(member, port) {
                if included(peer) && world.component_id(peer) == world.component_id(member) {
                    shape
                        .insert_edge(pos, world.placement(peer).pos)
                        .expect("bonded cells are adjacent");
                }
            }
        }
    }
    shape
}

/// Checks `shape_of` at every node, for both `only_output` values, and `output_shapes`.
fn assert_matches_reference<P: Protocol>(world: &World<P>, label: &str) {
    let mut reference_outputs = Vec::new();
    let mut seen = Vec::new();
    for node in world.nodes() {
        for only_output in [false, true] {
            assert_eq!(
                world.shape_of(node, only_output),
                incremental_shape_of(world, node, only_output),
                "{label}: node {node:?}, only_output = {only_output}"
            );
        }
        let cid = world.component_id(node);
        if !seen.contains(&cid) {
            seen.push(cid);
            let shape = incremental_shape_of(world, node, true);
            if !shape.is_empty() {
                reference_outputs.push(shape);
            }
        }
    }
    assert_eq!(world.output_shapes(), reference_outputs, "{label}");
}

/// A protocol that runs `P` unchanged but counts only some states as output states, so
/// the `only_output` filter drops members and the bonds that touch them: the leader, and
/// states picked by a digest of their `Debug` form.
struct SomeOutputs<P>(P);

impl<P: Protocol> Protocol for SomeOutputs<P> {
    type State = P::State;

    fn dim(&self) -> Dim {
        self.0.dim()
    }

    fn initial_state(&self, node: NodeId, n: usize) -> P::State {
        self.0.initial_state(node, n)
    }

    fn transition(
        &self,
        a: &P::State,
        pa: Dir,
        b: &P::State,
        pb: Dir,
        bonded: bool,
    ) -> Option<Transition<P::State>> {
        self.0.transition(a, pa, b, pb, bonded)
    }

    fn is_output(&self, state: &P::State) -> bool {
        let debug = format!("{state:?}");
        let digest = debug.bytes().map(u32::from).sum::<u32>();
        !debug.starts_with("Leader") && digest % 3 != 2 && self.0.is_output(state)
    }

    fn is_halted(&self, state: &P::State) -> bool {
        self.0.is_halted(state)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Runs `protocol` in chunks of `chunk` steps, checking the shapes after every chunk,
/// until it is stable or `chunks` chunks have run.
fn check_mid_run<P: Protocol>(protocol: P, n: usize, seed: u64, chunk: u64, chunks: usize) {
    let label = protocol.name().to_string();
    let mut sim = Simulation::new(protocol, SimulationConfig::new(n).with_seed(seed));
    for k in 0..chunks {
        sim.run_steps(chunk);
        assert_matches_reference(sim.world(), &format!("{label} n={n} chunk {k}"));
        if sim.world().is_stable() {
            break;
        }
    }
}

#[test]
fn shape_of_matches_incremental_construction_mid_run() {
    for seed in [3u64, 11] {
        check_mid_run(GlobalLine::new(), 24, seed, 100, 40);
        check_mid_run(SomeOutputs(GlobalLine::new()), 24, seed, 100, 40);
        check_mid_run(Square::new(), 16, seed, 300, 40);
        check_mid_run(SomeOutputs(Square::new()), 16, seed, 300, 40);
        check_mid_run(CountingOnALine::new(1), 20, seed, 250, 40);
        check_mid_run(SomeOutputs(CountingOnALine::new(1)), 20, seed, 250, 40);
    }
}

#[test]
fn adjacent_unbonded_cells_get_no_edge() {
    // A 2×2 block bonded as a U: 0–1 along x, 1–2 along y, 2–3 along x. Nodes 0 and 3
    // end up on adjacent cells with no bond between them.
    let mut world = World::new(GlobalLine::new(), 5);
    let node = NodeId::new;
    world
        .setup_bond(node(0), Dir::Right, node(1), Dir::Left)
        .unwrap();
    world
        .setup_bond(node(1), Dir::Up, node(2), Dir::Down)
        .unwrap();
    world
        .setup_bond(node(2), Dir::Left, node(3), Dir::Right)
        .unwrap();
    assert!(world.check_invariants());
    let (p0, p3) = (world.placement(node(0)).pos, world.placement(node(3)).pos);
    assert!(p0.is_adjacent(p3));

    let shape = world.shape_of(node(0), false);
    assert_eq!((shape.len(), shape.edge_count()), (4, 3));
    assert!(!shape.contains_edge(p0, p3));
    assert!(shape.is_connected());
    assert!(!shape.is_full_square(2));
    assert_matches_reference(&world, "U block");
}
