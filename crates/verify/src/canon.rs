//! Configuration extraction, canonicalization and faithful rebuilding.
//!
//! A [`Config`] is the embedding-free part of a configuration: per-node protocol
//! states and the port-to-port link table. Because the link table determines every
//! component's embedding up to a rigid motion (see the crate docs), two worlds with
//! equal `Config`s are the same configuration of the model, and [`canonical_key`]
//! additionally quotients by node relabeling: it encodes each component by a
//! breadth-first walk that follows ports in index order from a root carrying the
//! component's least state, keeps the smallest encoding over such roots, and sorts the
//! component codes. That is polynomial in `n` (at worst `O(k²)` for a component of
//! `k` members), so the explorer reaches the first √n×√n square with an interior
//! (n = 16).

use std::collections::VecDeque;
use std::fmt::Write as _;

use nc_core::{NodeId, Protocol, SnapshotProtocol, SnapshotWriter, World};
use nc_geometry::Dir;

/// The embedding-free part of a configuration: states plus the port link table.
///
/// `links[i][d]` is `Some((j, pj))` when port `d` (a raw [`Dir::index`]) of node `i`
/// is bonded to port `pj` of node `j`. The table is symmetric by construction.
#[derive(Clone, Debug, PartialEq)]
pub struct Config<P: Protocol> {
    /// Per-node protocol states, indexed by node id.
    pub states: Vec<P::State>,
    /// Per-node, per-port bonded peers, indexed by node id and raw port index.
    pub links: Vec<[Option<(usize, Dir)>; 6]>,
}

impl<P: Protocol> Config<P> {
    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the configuration is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Extracts the embedding-free configuration of `world`.
#[must_use]
pub fn extract<P: Protocol>(world: &World<P>) -> Config<P> {
    let n = world.len();
    let mut links = vec![[None; 6]; n];
    for node in world.nodes() {
        for &port in world.dim().dirs() {
            if let Some((peer, peer_port)) = world.bonded_peer(node, port) {
                links[node.index()][port.index()] = Some((peer.index(), peer_port));
            }
        }
    }
    Config {
        states: world.state_slice().to_vec(),
        links,
    }
}

/// Rebuilds a [`World`] realizing `config`, with node ids preserved.
///
/// States are installed first; bonds are then activated per component along a BFS
/// spanning tree (each tree edge is a component merge, for which the 2D rotation is
/// unique) and finally the remaining cycle edges (same-component facing adjacencies).
/// Both go through [`World::setup_bond`], i.e. the production geometry checks: a
/// link table that is not realizable as a rigid grid configuration is an error, not
/// a silent approximation.
///
/// # Errors
/// A description of the first unrealizable bond, if the table is inconsistent.
pub fn rebuild<P>(protocol: &P, config: &Config<P>) -> Result<World<P>, String>
where
    P: Protocol + Clone,
{
    let mut world = World::new(protocol.clone(), config.len());
    install(&mut world, config)?;
    Ok(world)
}

/// Installs `config` into a fresh world of the same size (states, then bonds).
///
/// Exposed separately so counterexample snapshots can be built through
/// [`nc_core::Simulation::checkpoint`] by mutating the simulation's world in place.
///
/// # Errors
/// See [`rebuild`].
pub fn install<P: Protocol>(world: &mut World<P>, config: &Config<P>) -> Result<(), String> {
    let n = config.len();
    assert_eq!(world.len(), n, "install target must have matching size");
    for (i, state) in config.states.iter().enumerate() {
        world.set_state(NodeId::new(i as u32), state.clone());
    }
    let mut seen = vec![false; n];
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut queue = VecDeque::from([root]);
        let mut cycle_edges: Vec<(usize, usize, usize, Dir)> = Vec::new();
        while let Some(u) = queue.pop_front() {
            for (pi, link) in config.links[u].iter().enumerate() {
                let Some((v, pv)) = *link else { continue };
                if seen[v] {
                    cycle_edges.push((u, pi, v, pv));
                } else {
                    seen[v] = true;
                    bond(world, u, pi, v, pv)?;
                    queue.push_back(v);
                }
            }
        }
        // Cycle edges (and the back views of tree edges, which are already bonded).
        for (u, pi, v, pv) in cycle_edges {
            if world
                .bonded_peer(NodeId::new(u as u32), Dir::from_index(pi))
                .is_none()
            {
                bond(world, u, pi, v, pv)?;
            }
        }
    }
    Ok(())
}

fn bond<P: Protocol>(
    world: &mut World<P>,
    u: usize,
    pu: usize,
    v: usize,
    pv: Dir,
) -> Result<(), String> {
    world
        .setup_bond(
            NodeId::new(u as u32),
            Dir::from_index(pu),
            NodeId::new(v as u32),
            pv,
        )
        .map_err(|e| {
            format!("link table not realizable: bond n{u}:{pu} – n{v}:{pv:?} rejected: {e}")
        })
}

/// Largest population [`canonical_key`] accepts: node ids and component-local ids are
/// written as one byte, and `0xFF` marks a free port.
pub const MAX_NODES: usize = 254;

/// Canonical byte key of `config`: the sorted codes of its components, each prefixed
/// with its length.
///
/// A component's code is the smallest traversal encoding over the roots that carry
/// its least state bytes. Every bond names both of its ports, so a breadth-first walk
/// from a fixed root that follows ports in index order numbers the component the same
/// way under any node labels; the code then records every member's state and links
/// under that numbering, so it determines the component up to relabeling. Two
/// configurations therefore have equal keys iff they are equal up to node relabeling
/// — which, together with links determining embeddings (crate docs), means equal up
/// to relabeling *and* per-component translation/rotation. States are compared
/// through the protocol's snapshot encoding, which is injective by construction (tag
/// plus fields). A component of `k` members costs `O(k²)` at worst, `O(k)` when its
/// least state is unique (a leader).
///
/// # Panics
/// If `config` has more than [`MAX_NODES`] nodes, or a state encodes to more than 255
/// bytes: either would alias distinct configurations in the one-byte encoding.
#[must_use]
pub fn canonical_key<P: SnapshotProtocol>(protocol: &P, config: &Config<P>) -> Vec<u8> {
    let n = config.len();
    assert!(
        n <= MAX_NODES,
        "canonical keys hold at most {MAX_NODES} nodes, got {n}"
    );
    let state_bytes: Vec<Vec<u8>> = config
        .states
        .iter()
        .map(|s| {
            let mut w = SnapshotWriter::new();
            protocol.encode_state(s, &mut w);
            let bytes = w.into_bytes();
            assert!(
                bytes.len() <= 0xFF,
                "state encodings must fit a one-byte length"
            );
            bytes
        })
        .collect();
    let mut local = vec![usize::MAX; n];
    let mut seen = vec![false; n];
    let mut codes = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let (_, members) = traversal_code(config, &state_bytes, start, &mut local);
        for &m in &members {
            seen[m] = true;
        }
        let least = members
            .iter()
            .map(|&m| &state_bytes[m])
            .min()
            .expect("a component has its start node");
        let code = members
            .iter()
            .filter(|&&root| state_bytes[root] == *least)
            .map(|&root| traversal_code(config, &state_bytes, root, &mut local).0)
            .min()
            .expect("some member carries the least state");
        codes.push(code);
    }
    codes.sort_unstable();
    let mut key = Vec::with_capacity(codes.iter().map(|c| c.len() + 4).sum());
    for code in codes {
        key.extend_from_slice(&(code.len() as u32).to_le_bytes());
        key.extend_from_slice(&code);
    }
    key
}

/// Encodes the component of `root` in breadth-first order from `root`, following
/// ports in index order, and returns the code with the members in visiting order.
///
/// Members are numbered by first visit (`root` is 0). Each member, in that order,
/// contributes its state's length and bytes, then per port either `0xFF` (free) or
/// the peer's number and port. `local` is scratch space, all `usize::MAX` on entry
/// and on return.
fn traversal_code<P: Protocol>(
    config: &Config<P>,
    state_bytes: &[Vec<u8>],
    root: usize,
    local: &mut [usize],
) -> (Vec<u8>, Vec<usize>) {
    let mut order = vec![root];
    local[root] = 0;
    let mut code = Vec::new();
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        code.push(state_bytes[u].len() as u8);
        code.extend_from_slice(&state_bytes[u]);
        for link in &config.links[u] {
            match *link {
                None => code.push(0xFF),
                Some((v, pv)) => {
                    if local[v] == usize::MAX {
                        local[v] = order.len();
                        order.push(v);
                    }
                    code.push(local[v] as u8);
                    code.push(pv.index() as u8);
                }
            }
        }
    }
    for &u in &order {
        local[u] = usize::MAX;
    }
    (code, order)
}

/// A raw, embedding-inclusive fingerprint of a world: states, placements (position
/// *and* rotation), component ids, link table, bond and component counts.
///
/// Deliberately *finer* than the canonical key: two rigidly moved copies of one
/// configuration share a key but not a fingerprint.
#[must_use]
pub fn fingerprint<P: Protocol>(world: &World<P>) -> String {
    let mut s = String::new();
    for node in world.nodes() {
        let p = world.placement(node);
        let _ = write!(
            s,
            "{:?}@{:?}/{:?}#c{}[",
            world.state(node),
            p.pos,
            p.rot,
            world.component_id(node)
        );
        for &port in world.dim().dirs() {
            if let Some((peer, pp)) = world.bonded_peer(node, port) {
                let _ = write!(s, "{}>{peer}:{pp:?} ", port.short_name());
            }
        }
        s.push_str("];");
    }
    let _ = write!(
        s,
        "bonds={} comps={}",
        world.bond_count(),
        world.component_count()
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use nc_core::Simulation;
    use nc_core::SimulationConfig;
    use nc_protocols::counting_line::CountingOnALine;
    use nc_protocols::line::GlobalLine;
    use nc_protocols::square::Square;

    fn key_of(world: &World<GlobalLine>) -> Vec<u8> {
        canonical_key(&GlobalLine, &extract(world))
    }

    /// Grab order permutes which node carries which state; the canonical key must not
    /// see the difference, while the raw configs genuinely differ.
    #[test]
    fn relabeling_invariance() {
        let build = |first: u32, second: u32| {
            let mut w = World::new(GlobalLine, 3);
            let i = w
                .effective_interaction_at(NodeId::new(0), Dir::Right, NodeId::new(first), Dir::Left)
                .expect("leader grabs a q0");
            w.apply(&i);
            // The grabbed node is now the leader, waiting on Right (opposite of Left).
            let i = w
                .effective_interaction_at(
                    NodeId::new(first),
                    Dir::Right,
                    NodeId::new(second),
                    Dir::Left,
                )
                .expect("new leader grabs the last q0");
            w.apply(&i);
            w
        };
        let a = build(1, 2);
        let b = build(2, 1);
        assert_ne!(
            extract(&a).states,
            extract(&b).states,
            "the raw configs must differ for the test to mean anything"
        );
        assert_eq!(key_of(&a), key_of(&b));
    }

    /// The same link table built in different bond orders anchors different nodes, so
    /// the embeddings differ by a rigid motion; configs and keys must agree, and the
    /// component shapes must be congruent (the links-determine-embedding argument).
    #[test]
    fn rigid_motion_invariance() {
        let chain = |order: [(u32, Dir, u32, Dir); 2]| {
            let mut w = World::new(GlobalLine, 3);
            for (a, pa, b, pb) in order {
                w.setup_bond(NodeId::new(a), pa, NodeId::new(b), pb)
                    .expect("chain bond");
            }
            w
        };
        // a–b then b–c: anchored at node 0. b–c then a–b: anchored at node 1.
        let w1 = chain([(0, Dir::Right, 1, Dir::Left), (1, Dir::Right, 2, Dir::Left)]);
        let w2 = chain([(1, Dir::Right, 2, Dir::Left), (0, Dir::Right, 1, Dir::Left)]);
        assert_eq!(extract(&w1), extract(&w2));
        assert_eq!(key_of(&w1), key_of(&w2));
        assert_ne!(
            fingerprint(&w1),
            fingerprint(&w2),
            "the embeddings must differ for the test to mean anything"
        );
        let s1 = w1.shape_of(NodeId::new(0), false);
        let s2 = w2.shape_of(NodeId::new(0), false);
        assert!(s1.congruent(&s2));
    }

    /// Known-distinct configurations with identical state multisets must not collide:
    /// a straight 3-chain vs an L-shaped 3-chain, and a Right–Left vs an Up–Down bond
    /// (different port pairs are different configurations even when the shapes are
    /// congruent — port identity is visible to the transition function).
    #[test]
    fn no_false_merges() {
        let mut straight = World::new(GlobalLine, 3);
        straight
            .setup_bond(NodeId::new(0), Dir::Right, NodeId::new(1), Dir::Left)
            .unwrap();
        straight
            .setup_bond(NodeId::new(1), Dir::Right, NodeId::new(2), Dir::Left)
            .unwrap();
        let mut bent = World::new(GlobalLine, 3);
        bent.setup_bond(NodeId::new(0), Dir::Right, NodeId::new(1), Dir::Left)
            .unwrap();
        bent.setup_bond(NodeId::new(1), Dir::Up, NodeId::new(2), Dir::Down)
            .unwrap();
        assert_ne!(key_of(&straight), key_of(&bent));

        let mut rl = World::new(GlobalLine, 2);
        rl.setup_bond(NodeId::new(0), Dir::Right, NodeId::new(1), Dir::Left)
            .unwrap();
        let mut ud = World::new(GlobalLine, 2);
        ud.setup_bond(NodeId::new(0), Dir::Up, NodeId::new(1), Dir::Down)
            .unwrap();
        assert_ne!(key_of(&rl), key_of(&ud));
    }

    /// Rebuilding an extracted config reproduces the exact configuration (states and
    /// links; the embedding may be a different representative of the same rigid-motion
    /// class) — including cyclic link tables, which exercise the cycle-edge path.
    #[test]
    fn rebuild_roundtrip_with_cycle() {
        let mut sim = Simulation::new(Square::new(), SimulationConfig::new(4).with_seed(7));
        let report = sim.run_until_stable();
        assert!(report.stabilized);
        let world = sim.world();
        assert!(world.bond_count() >= 4, "a stable 2x2 square has a cycle");
        let config = extract(world);
        let rebuilt = rebuild(&Square::new(), &config).expect("extracted config is realizable");
        assert_eq!(extract(&rebuilt), config);
        assert!(rebuilt.check_invariants());
        assert_eq!(
            canonical_key(&Square::new(), &extract(&rebuilt)),
            canonical_key(&Square::new(), &config)
        );
        assert!(rebuilt
            .shape_of(NodeId::new(0), false)
            .congruent(&world.shape_of(NodeId::new(0), false)));
    }

    /// The permutation minimiser the traversal key replaced, kept as the differential
    /// oracle: the minimum, over all state-preserving node permutations, of a fixed
    /// byte encoding of `(states, links)`. Factorial in the size of each same-state
    /// group, so only usable at small `n`.
    fn oracle_key<P: SnapshotProtocol>(protocol: &P, config: &Config<P>) -> Vec<u8> {
        let n = config.len();
        let state_bytes: Vec<Vec<u8>> = config
            .states
            .iter()
            .map(|s| {
                let mut w = SnapshotWriter::new();
                protocol.encode_state(s, &mut w);
                w.into_bytes()
            })
            .collect();
        // Group nodes by identical state bytes; groups ordered by the bytes themselves
        // so the block layout of the canonical relabeling is itself canonical.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| state_bytes[a].cmp(&state_bytes[b]).then(a.cmp(&b)));
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for &i in &order {
            match groups.last_mut() {
                Some(g) if state_bytes[g[0]] == state_bytes[i] => g.push(i),
                _ => groups.push(vec![i]),
            }
        }
        let mut perm = vec![0usize; n];
        let mut best: Option<Vec<u8>> = None;
        assign_group(config, &state_bytes, &groups, 0, 0, &mut perm, &mut best);
        best.unwrap_or_default()
    }

    /// Recursively assigns new ids to group `g` (whose block starts at `base`), trying
    /// every ordering of its members, then recurses into the next group; at the leaves
    /// the full permutation is encoded and the minimum retained.
    fn assign_group<P: Protocol>(
        config: &Config<P>,
        state_bytes: &[Vec<u8>],
        groups: &[Vec<usize>],
        g: usize,
        base: usize,
        perm: &mut Vec<usize>,
        best: &mut Option<Vec<u8>>,
    ) {
        if g == groups.len() {
            let key = encode_under(config, state_bytes, perm);
            if best.as_ref().is_none_or(|b| key < *b) {
                *best = Some(key);
            }
            return;
        }
        let members = groups[g].clone();
        permute(&members, base, &mut |assignment| {
            for (member, new_id) in assignment {
                perm[*member] = *new_id;
            }
            assign_group(
                config,
                state_bytes,
                groups,
                g + 1,
                base + members.len(),
                perm,
                best,
            );
        });
    }

    /// Calls `f` with every assignment of `members` to new ids `base..base+len`.
    fn permute(members: &[usize], base: usize, f: &mut impl FnMut(&[(usize, usize)])) {
        fn rec(
            members: &[usize],
            base: usize,
            used: &mut Vec<bool>,
            acc: &mut Vec<(usize, usize)>,
            f: &mut impl FnMut(&[(usize, usize)]),
        ) {
            if acc.len() == members.len() {
                f(acc);
                return;
            }
            let slot = base + acc.len();
            for (i, &m) in members.iter().enumerate() {
                if !used[i] {
                    used[i] = true;
                    acc.push((m, slot));
                    rec(members, base, used, acc, f);
                    acc.pop();
                    used[i] = false;
                }
            }
        }
        rec(
            members,
            base,
            &mut vec![false; members.len()],
            &mut Vec::new(),
            f,
        );
    }

    /// Encodes `config` under the relabeling `perm` (`perm[old] = new`).
    fn encode_under<P: Protocol>(
        config: &Config<P>,
        state_bytes: &[Vec<u8>],
        perm: &[usize],
    ) -> Vec<u8> {
        let n = config.len();
        let mut inv = vec![0usize; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new] = old;
        }
        let mut out = Vec::with_capacity(n * 16);
        for &old in &inv {
            out.push(state_bytes[old].len() as u8);
            out.extend_from_slice(&state_bytes[old]);
            for link in &config.links[old] {
                match link {
                    None => out.push(0xFF),
                    Some((peer, peer_port)) => {
                        out.push(perm[*peer] as u8);
                        out.push(peer_port.index() as u8);
                    }
                }
            }
        }
        out
    }

    /// `config` with node `i` renamed `perm[i]`.
    fn relabel<P: Protocol>(config: &Config<P>, perm: &[usize]) -> Config<P> {
        let n = config.len();
        let mut states = config.states.clone();
        let mut links = vec![[None; 6]; n];
        for i in 0..n {
            states[perm[i]] = config.states[i].clone();
            for (d, link) in config.links[i].iter().enumerate() {
                links[perm[i]][d] = link.map(|(j, pj)| (perm[j], pj));
            }
        }
        Config { states, links }
    }

    /// Pairs traversal keys with oracle keys and fails on the first configuration the
    /// two keys class differently.
    #[derive(Default)]
    struct SamePartition {
        new_of_old: HashMap<Vec<u8>, Vec<u8>>,
        old_of_new: HashMap<Vec<u8>, Vec<u8>>,
    }

    impl SamePartition {
        fn check<P: SnapshotProtocol>(&mut self, protocol: &P, config: &Config<P>) {
            let new = canonical_key(protocol, config);
            let old = oracle_key(protocol, config);
            let at = format!("{} n={}", protocol.name(), config.len());
            assert_eq!(
                self.new_of_old
                    .entry(old.clone())
                    .or_insert_with(|| new.clone()),
                &new,
                "{at}: one oracle class got two traversal keys"
            );
            assert_eq!(
                self.old_of_new.entry(new).or_insert_with(|| old.clone()),
                &old,
                "{at}: one traversal key covers two oracle classes"
            );
        }
    }

    fn reversed(n: usize) -> Vec<usize> {
        (0..n).rev().collect()
    }

    /// The traversal key splits configurations into exactly the oracle's classes.
    /// Checked on every explored representative, on its reversed relabeling, and on
    /// every raw successor the production apply produces (node ids inherited from the
    /// parent), so both directions are exercised: equal classes under different
    /// labels, and distinct classes with equal state multisets.
    fn assert_same_partition<P: crate::VerifiedProtocol>(protocol: P, n: usize) {
        let ex = crate::explore(protocol.clone(), n).expect("exploration in bounds");
        let mut same = SamePartition::default();
        for rec in &ex.states {
            same.check(&protocol, &rec.config);
            same.check(&protocol, &relabel(&rec.config, &reversed(n)));
            let world = rebuild(&protocol, &rec.config).expect("explored configs rebuild");
            let pairs = world
                .enumerate_permissible(usize::MAX)
                .expect("unbounded enumeration");
            for pair in pairs {
                if let Some(i) = world.effective_interaction_at(pair.a, pair.pa, pair.b, pair.pb) {
                    let mut next = rebuild(&protocol, &rec.config).expect("rebuild");
                    next.apply(&i);
                    same.check(&protocol, &extract(&next));
                }
            }
        }
        assert_eq!(same.old_of_new.len(), ex.state_count());
    }

    #[test]
    fn traversal_key_partitions_like_the_oracle_on_global_line() {
        for n in 1..=6 {
            assert_same_partition(GlobalLine, n);
        }
    }

    #[test]
    fn traversal_key_partitions_like_the_oracle_on_square() {
        for n in 1..=6 {
            assert_same_partition(Square::new(), n);
        }
    }

    #[test]
    fn traversal_key_partitions_like_the_oracle_on_counting_b1() {
        for n in 2..=6 {
            assert_same_partition(CountingOnALine::new(1), n);
        }
    }

    #[test]
    fn traversal_key_partitions_like_the_oracle_on_counting_b2() {
        for n in 2..=6 {
            assert_same_partition(CountingOnALine::new(2), n);
        }
    }

    /// In the reachable configurations above every component carries a unique least
    /// state (a leader), so each has a single candidate root. Giving every node of an
    /// explored representative the same state makes every member a candidate, and
    /// Square's 2×2 block is symmetric under rotation: the keys must still agree.
    #[test]
    fn traversal_key_partitions_like_the_oracle_on_uniform_states() {
        fn check_uniform<P: crate::VerifiedProtocol>(protocol: P, n: usize) {
            let ex = crate::explore(protocol.clone(), n).expect("exploration in bounds");
            let mut same = SamePartition::default();
            for rec in &ex.states {
                let uniform = Config::<P> {
                    states: vec![rec.config.states[0].clone(); n],
                    links: rec.config.links.clone(),
                };
                same.check(&protocol, &uniform);
                same.check(&protocol, &relabel(&uniform, &reversed(n)));
            }
        }
        for n in 1..=6 {
            check_uniform(Square::new(), n);
        }
        for n in 1..=5 {
            check_uniform(GlobalLine, n);
        }
    }

    /// Past [`MAX_NODES`] the one-byte ids would alias distinct configurations, so the
    /// bound holds in release builds too: the explorer refuses such `n` up front...
    #[test]
    fn explore_refuses_populations_past_the_key_bound() {
        let err = crate::explore(GlobalLine, MAX_NODES + 1)
            .err()
            .expect("n past the key bound must be refused");
        assert!(err.contains("at most 254"), "{err}");
        let at_bound = extract(&World::new(GlobalLine, MAX_NODES));
        assert!(!canonical_key(&GlobalLine, &at_bound).is_empty());
    }

    /// ...and the key itself panics rather than alias.
    #[test]
    #[should_panic(expected = "at most 254 nodes")]
    fn canonical_key_panics_past_the_key_bound() {
        let past = extract(&World::new(GlobalLine, MAX_NODES + 1));
        let _ = canonical_key(&GlobalLine, &past);
    }
}
