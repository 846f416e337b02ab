//! The intra buckets: the intra-component pairs (class 1 of the decomposition) and their
//! effective subset, keyed by lower endpoint `node·PORT_CAP + port`. A node-port is in
//! at most one intra pair, so that key orders them like their [`super::pair_key`]s; a
//! pair's peer is read back from the endpoint's [`PackedIntra`] in its `NodeReg`.

use super::{MAX_INDEXED_NODES, PORT_CAP};
use crate::rank_set::RankSet;
use crate::NodeId;
use nc_geometry::Dir;

/// One intra-component pair as seen from one of its endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct IntraEntry {
    pub(super) peer: NodeId,
    pub(super) pport: Dir,
    pub(super) bonded: bool,
}

/// An optional [`IntraEntry`] in one `u32`: `peer << 4 | pport << 1 | bonded`, with
/// `u32::MAX` (port bits 7, no port) meaning none. Peers below
/// [`MAX_INDEXED_NODES`] fit the 28 peer bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct PackedIntra(u32);

impl PackedIntra {
    pub(super) const NONE: PackedIntra = PackedIntra(u32::MAX);

    pub(super) fn pack(peer: NodeId, pport: Dir, bonded: bool) -> PackedIntra {
        debug_assert!(peer.index() < MAX_INDEXED_NODES);
        PackedIntra(
            ((peer.index() as u32) << 4) | ((pport.index() as u32) << 1) | u32::from(bonded),
        )
    }

    pub(super) fn get(self) -> Option<IntraEntry> {
        (self != PackedIntra::NONE).then(|| IntraEntry {
            peer: NodeId::new(self.0 >> 4),
            pport: Dir::from_index(((self.0 >> 1) & 0b111) as usize),
            bonded: self.0 & 1 == 1,
        })
    }
}

/// The lower endpoint of an intra pair in the [`super::pair_key`] order: it stands for
/// the pair in the intra sets.
pub(super) fn lower_endpoint(x: NodeId, pa: Dir, peer: NodeId, pport: Dir) -> (NodeId, Dir) {
    if (x.index(), pa.index()) <= (peer.index(), pport.index()) {
        (x, pa)
    } else {
        (peer, pport)
    }
}

fn port_key((x, pa): (NodeId, Dir)) -> usize {
    x.index() * PORT_CAP + pa.index()
}

fn port_at(key: usize) -> (NodeId, Dir) {
    (
        NodeId::new((key / PORT_CAP) as u32),
        Dir::from_index(key % PORT_CAP),
    )
}

/// The intra pairs and their effective subset, by lower endpoint.
pub(super) struct IntraBuckets {
    pairs: RankSet,
    effective: RankSet,
}

impl IntraBuckets {
    pub(super) fn new(nodes: usize) -> IntraBuckets {
        IntraBuckets {
            pairs: RankSet::new(nodes * PORT_CAP),
            effective: RankSet::new(nodes * PORT_CAP),
        }
    }

    pub(super) fn insert(&mut self, lo: (NodeId, Dir)) {
        self.pairs.insert(port_key(lo));
    }

    pub(super) fn remove(&mut self, lo: (NodeId, Dir)) {
        self.pairs.remove(port_key(lo));
        self.effective.remove(port_key(lo));
    }

    /// Adds (`eff`) or removes the pair in the effective set.
    pub(super) fn set_effective(&mut self, lo: (NodeId, Dir), eff: bool) {
        if eff {
            self.effective.insert(port_key(lo));
        } else {
            self.effective.remove(port_key(lo));
        }
    }

    pub(super) fn len(&self) -> u64 {
        self.pairs.len() as u64
    }

    pub(super) fn effective_len(&self) -> u64 {
        self.effective.len() as u64
    }

    /// The lower endpoint of the `k`-th pair (`effective` or any), ascending.
    pub(super) fn kth(&self, effective: bool, k: u64) -> (NodeId, Dir) {
        port_at([&self.pairs, &self.effective][usize::from(effective)].select(k as usize))
    }

    /// The lower endpoints of the effective pairs, ascending.
    pub(super) fn effective(&self) -> impl Iterator<Item = (NodeId, Dir)> + '_ {
        self.effective.iter().map(port_at)
    }
}
