//! The world's snapshot codec (format and exactness notes: [`crate::snapshot`]).

use super::*;
use crate::CoreError;

impl<P: Protocol> World<P> {
    /// Encodes the sampler-visible runtime state of the configuration: the scalar
    /// bookkeeping, every node's state/placement/links, the component-slot layout
    /// with each component's membership order, and — when the permissible-pair index
    /// is active — its pinned class-table layout. Derived state (halted flags, count
    /// caches) is deliberately omitted; see the module docs of
    /// [`crate::snapshot`] for what is recomputed on resume and why that is exact.
    pub(crate) fn snapshot_encode(&self, out: &mut crate::SnapshotWriter)
    where
        P: crate::SnapshotProtocol,
    {
        out.u8(match self.dim {
            Dim::Two => 2,
            Dim::Three => 3,
        });
        out.u64(self.bond_count as u64);
        out.u64(self.sum_sq_sizes);
        out.u64(self.live_components as u64);
        // Reserved: formerly a count of cross-shard merges/splits. Written as 0, read
        // and ignored.
        out.u64(0);
        for i in 0..self.len() {
            self.protocol.encode_state(&self.states[i], out);
            let placement = self.geo[i].pl;
            out.i32(placement.pos.x);
            out.i32(placement.pos.y);
            out.i32(placement.pos.z);
            // A rotation is determined by the images of the three axes; encoding
            // them through the public `apply_dir` round-trips via
            // `Rotation::from_axis_images`, which validates on decode.
            out.u8(placement.rot.apply_dir(Dir::Right).index() as u8);
            out.u8(placement.rot.apply_dir(Dir::Up).index() as u8);
            out.u8(placement.rot.apply_dir(Dir::ZPlus).index() as u8);
            out.u64(self.comp_of[i] as u64);
            for link in &self.geo[i].links {
                match link {
                    Some((peer, port)) => {
                        out.u8(1);
                        out.u32(peer.index() as u32);
                        out.u8(port.index() as u8);
                    }
                    None => out.u8(0),
                }
            }
        }
        out.u64(self.components.len() as u64);
        for slot in &self.components {
            match slot {
                Some(comp) => {
                    out.u8(1);
                    out.u64(comp.len() as u64);
                    // Membership order is sampler-visible (cross-pair enumeration
                    // walks it) and execution-history dependent: persist it. Frame
                    // positions are not stored — the occupancy map is rebuilt from
                    // the members' placements.
                    for &member in comp.members() {
                        out.u32(member.index() as u32);
                    }
                }
                None => out.u8(0),
            }
        }
        let cell = self.pairs.borrow();
        out.u8(match cell.mode {
            PairMode::Disabled => 0,
            PairMode::Active => 1,
            PairMode::Overflowed => 2,
        });
        if matches!(cell.mode, PairMode::Active) {
            let (slots, free) = cell.index.snapshot_class_layout();
            out.u64(slots.len() as u64);
            for slot in &slots {
                match slot {
                    Some(state) => {
                        out.u8(1);
                        self.protocol.encode_state(state, out);
                    }
                    None => out.u8(0),
                }
            }
            out.u64(free.len() as u64);
            for id in free {
                out.u32(id);
            }
        }
    }

    /// Decodes a configuration encoded by [`World::snapshot_encode`] into a fresh
    /// world of `n` nodes.
    ///
    /// Decoding is defensive end to end: the input has only passed a checksum, so
    /// every id is bounds-checked, every tag validated, cell occupancy pre-checked
    /// before insertion, the stored scalar bookkeeping compared against a recount,
    /// and the full embedding invariant suite run at the end — malformed input yields
    /// a typed [`CoreError`], never a panic. Halted flags are recomputed from the
    /// decoded states.
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] or [`CoreError::SnapshotCorrupt`].
    pub(crate) fn snapshot_decode(
        protocol: P,
        n: usize,
        r: &mut crate::SnapshotReader<'_>,
    ) -> crate::Result<World<P>>
    where
        P: crate::SnapshotProtocol,
    {
        fn corrupt(what: &'static str) -> CoreError {
            CoreError::SnapshotCorrupt { what }
        }
        if n == 0 {
            return Err(corrupt("population size is zero"));
        }
        // Every node costs at least 30 body bytes (state tag, position, rotation
        // axes, component id, six link tags), so a population the remaining bytes
        // cannot possibly hold is rejected *before* the world — whose runtime
        // structures are sized by `n` — is allocated. Without this bound a
        // corrupted-but-checksum-valid population count could demand terabytes.
        const MIN_NODE_BYTES: usize = 30;
        if n > r.remaining() / MIN_NODE_BYTES {
            return Err(corrupt("population size exceeds the snapshot body"));
        }
        let world = World::new(protocol, n);
        let dim = match r.u8()? {
            2 => Dim::Two,
            3 => Dim::Three,
            _ => return Err(corrupt("dimension tag is neither 2 nor 3")),
        };
        if dim != world.dim {
            return Err(corrupt(
                "snapshot dimensionality disagrees with the protocol",
            ));
        }
        let bond_count = r.u64()?;
        let sum_sq_sizes = r.u64()?;
        let live_components = r.u64()?;
        let _reserved = r.u64()?;
        let mut states = Vec::with_capacity(n);
        let mut geo: Vec<NodeGeo> = Vec::with_capacity(n);
        let mut comp_of = Vec::with_capacity(n);
        for _ in 0..n {
            states.push(world.protocol.decode_state(r)?);
            let pos = Coord::new(r.i32()?, r.i32()?, r.i32()?);
            // Reachable embeddings stay within O(n) of the origin; a generous ±2³⁰
            // bound rejects corrupted coordinates long before the neighbour
            // arithmetic (`pos + dir.unit()`) could overflow an `i32`.
            const COORD_BOUND: i32 = 1 << 30;
            let in_bounds = |c: i32| (-COORD_BOUND..=COORD_BOUND).contains(&c);
            if !(in_bounds(pos.x) && in_bounds(pos.y) && in_bounds(pos.z)) {
                return Err(corrupt("node position is outside the plausible grid"));
            }
            let mut axes = [Dir::Up; 3];
            for axis in &mut axes {
                let idx = r.u8()? as usize;
                if idx >= 6 {
                    return Err(corrupt("direction index out of range"));
                }
                *axis = Dir::from_index(idx);
            }
            let rot = Rotation::from_axis_images(axes[0], axes[1], axes[2])
                .ok_or_else(|| corrupt("axis images do not form a rigid grid rotation"))?;
            let pl = Placement { pos, rot };
            let comp = r.u64()?;
            comp_of.push(usize::try_from(comp).map_err(|_| corrupt("component id out of range"))?);
            let mut node_links = [None; 6];
            for entry in &mut node_links {
                match r.u8()? {
                    0 => {}
                    1 => {
                        let peer = r.u32()? as usize;
                        if peer >= n {
                            return Err(corrupt("link peer out of range"));
                        }
                        let port = r.u8()? as usize;
                        if port >= 6 {
                            return Err(corrupt("direction index out of range"));
                        }
                        *entry = Some((NodeId::new(peer as u32), Dir::from_index(port)));
                    }
                    _ => return Err(corrupt("link tag is neither 0 nor 1")),
                }
            }
            geo.push(NodeGeo {
                links: node_links,
                pl,
            });
        }
        let slot_count = r.count(1)?;
        let mut components: Vec<Option<Component>> = Vec::with_capacity(slot_count);
        let mut assigned = vec![false; n];
        for idx in 0..slot_count {
            match r.u8()? {
                0 => components.push(None),
                1 => {
                    let members = r.count(4)?;
                    if members == 0 {
                        return Err(corrupt("live component slot with no members"));
                    }
                    let mut cells = Vec::with_capacity(members);
                    for _ in 0..members {
                        let member = r.u32()? as usize;
                        if member >= n {
                            return Err(corrupt("component member out of range"));
                        }
                        if assigned[member] {
                            return Err(corrupt("node listed in two components"));
                        }
                        assigned[member] = true;
                        if comp_of[member] != idx {
                            return Err(corrupt(
                                "component membership disagrees with the node's component id",
                            ));
                        }
                        cells.push((NodeId::new(member as u32), geo[member].pl.pos));
                    }
                    // Sized once from every member's cell; members far apart get the
                    // sparse map, never a grid spanning their distance.
                    let comp = Component::from_members(&cells)
                        .ok_or_else(|| corrupt("two component members occupy one cell"))?;
                    components.push(Some(comp));
                }
                _ => return Err(corrupt("component slot tag is neither 0 nor 1")),
            }
        }
        if assigned.iter().any(|&a| !a) {
            return Err(corrupt("node missing from every component"));
        }
        // The stored scalar bookkeeping is redundant with the structures above:
        // recount and compare, so a corrupted scalar cannot skew the samplers.
        let linked = geo.iter().flat_map(|g| g.links).flatten().count();
        if linked % 2 != 0 || (linked / 2) as u64 != bond_count {
            return Err(corrupt("bond count disagrees with the link table"));
        }
        let live = components.iter().flatten().count();
        if live as u64 != live_components {
            return Err(corrupt("live component count disagrees with the slot list"));
        }
        let recount_sq: u64 = components
            .iter()
            .flatten()
            .map(|c| (c.len() * c.len()) as u64)
            .sum();
        if recount_sq != sum_sq_sizes {
            return Err(corrupt(
                "component size aggregate disagrees with the slot list",
            ));
        }
        let mode = match r.u8()? {
            0 => PairMode::Disabled,
            1 => PairMode::Active,
            2 => PairMode::Overflowed,
            _ => return Err(corrupt("pair-index mode tag out of range")),
        };
        let pinned = if matches!(mode, PairMode::Active) {
            let class_slots = r.count(1)?;
            let mut slots = Vec::with_capacity(class_slots);
            for _ in 0..class_slots {
                match r.u8()? {
                    0 => slots.push(None),
                    1 => slots.push(Some(world.protocol.decode_state(r)?)),
                    _ => return Err(corrupt("class slot tag is neither 0 nor 1")),
                }
            }
            let free_count = r.count(4)?;
            let mut free = Vec::with_capacity(free_count);
            for _ in 0..free_count {
                free.push(r.u32()?);
            }
            Some((slots, free))
        } else {
            None
        };
        let mut world = world;
        world.halted = states.iter().map(|s| world.protocol.is_halted(s)).collect();
        world.halted_count = world.halted.iter().filter(|&&h| h).count();
        world.states = states;
        world.geo = geo;
        world.comp_of = comp_of;
        world.components = components;
        world.bond_count = bond_count as usize;
        world.sum_sq_sizes = sum_sq_sizes;
        world.live_components = live;
        if !world.check_invariants() {
            return Err(corrupt("configuration violates the embedding invariants"));
        }
        match mode {
            PairMode::Disabled => {}
            PairMode::Overflowed => {
                world.pairs.get_mut().mode = PairMode::Overflowed;
            }
            PairMode::Active => {
                let (slots, free) = pinned.expect("decoded for the Active mode above");
                let view = world.geom_view();
                let mut cell = world.pairs.borrow_mut();
                cell.index
                    .restore_pinned(&view, &world.protocol, slots, free)
                    .map_err(|what| CoreError::SnapshotCorrupt { what })?;
                cell.mode = PairMode::Active;
                drop(cell);
                world.pairs_active.set(true);
            }
        }
        Ok(world)
    }
}
