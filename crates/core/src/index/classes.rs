//! The class table: the state classes the pair index registers nodes under, their
//! bucket sizes, class-pair rows and rates (classes 2 and 3 of the decomposition), and
//! the one walk over their cells.
//!
//! # The class-count aggregate
//!
//! Per class the table keeps the bucket sizes (`g[class][port]` free ports,
//! `s[class]` singletons) and a running effective pair count, updated with an exact
//! delta on every registration change — the rates the jump sampler composes its
//! geometric jumps from. Since `CLASS_CAP = 64`, the occupied slots and the classes
//! with a non-empty bucket fit one `u64` **member mask** each: `live`,
//! `single_classes` (bit `c` ⇔ `s[c] > 0`) and, per port, `free_classes[pa]` (bit `c`
//! ⇔ `g[c][pa] > 0`); every loop over classes visits only set bits ([`bits`],
//! ascending). Class-pair effectiveness lives in a dense table, never a hash map:
//! `effmask[ca·CLASS_CAP + cb]` packs one byte per port `pa` of `ca`, the *row*
//! `(ca, pa, cb)` whose bit `pb` says whether an unbonded pair of those states and
//! ports is effective.
//!
//! # The row invariant
//!
//! Rows are filled lazily, `ports` evaluations each ([`ClassTable::ensure_row`]),
//! because only free-port/singleton × singleton rows are ever read, in one
//! orientation. A per-class-pair `filled` byte marks the valid rows, and the
//! registrations keep one invariant:
//!
//! * a row `(ca, pa, cb)` is valid whenever `g[ca][pa] > 0` and `s[cb] > 0` (class 2);
//! * the rows `(lo, ·, hi)`, `lo ≤ hi`, are valid whenever both classes hold
//!   singletons (class 3; `epc(lo, hi)` is their popcount).
//!
//! A registration that makes a bucket non-empty fills the rows the invariant newly
//! demands ([`ClassTable::add_free_port`]: `(c, pa, ·)` of the singleton classes;
//! [`ClassTable::add_singleton`]: `(·, ·, c)` of the free ports and `(lo, ·, hi)` of
//! the singleton classes, `c` included); removals only shrink the premise. A
//! re-tenanted slot ([`ClassTable::allocate`]) clears its own rows and its column in
//! the live classes' rows (a non-live slot clears its rows when re-tenanted in turn).
//! A leader taking a fresh state on almost every effective step thus pays per step
//! for its free ports × the singleton classes, not for every live class.
//!
//! # Canonical order
//!
//! Class ids are allocated in the order classes are first seen, freed slots reused
//! LIFO. [`ClassTable::rows`] defines the one class-cell walk (class-2 rows, then
//! class-3 rows, classes and ports ascending), with arithmetic decomposition inside
//! each cell ([`Row::pick`]).

use std::ops::ControlFlow;

use super::{BaseCounts, Unindexable, PORT_CAP};
use crate::Protocol;
use nc_geometry::{Dim, Dir};

/// Hard cap on simultaneously *live* state classes. Protocols whose live state
/// diversity exceeds this (e.g. universal TM constructors) overflow the index, which
/// permanently falls back to the adaptive sampler — a soundness valve, not an error.
pub const CLASS_CAP: usize = 64;

// `effmask` packs a byte-wide row per port into a `u64`; a member mask a bit per class.
const _: () = assert!(PORT_CAP <= 8 && CLASS_CAP <= 64);

/// The set bits of a class member mask, ascending.
pub(super) fn bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros();
            mask &= mask - 1;
            bit
        })
    })
}

/// The ports of a port mask, ascending.
pub(super) fn ports(mask: u8) -> impl Iterator<Item = Dir> {
    bits(u64::from(mask)).map(|port| Dir::from_index(port as usize))
}

/// Index of the class pair `(ca, cb)` in the dense per-pair tables.
fn pair_at(ca: u32, cb: u32) -> usize {
    ca as usize * CLASS_CAP + cb as usize
}

/// Unranks `r ∈ 0..C(s, 2)` to the `r`-th pair `(i, j)`, `i < j`, in lexicographic
/// order over ranks `0..s`.
pub(super) fn unrank_pair(r: u64, s: u64) -> (u64, u64) {
    debug_assert!(s >= 2 && r < s * (s - 1) / 2);
    // Rows before row i hold f(i) = i·s − i(i+1)/2 pairs; invert approximately in
    // floats, then fix up exactly (the approximation is off by at most a few rows).
    let sf = s as f64;
    let mut i = (sf - 0.5 - ((sf - 0.5) * (sf - 0.5) - 2.0 * r as f64).max(0.0).sqrt())
        .floor()
        .max(0.0) as u64;
    let row_start = |i: u64| i * s - i * (i + 1) / 2;
    while i + 1 < s && row_start(i + 1) <= r {
        i += 1;
    }
    while row_start(i) > r {
        i -= 1;
    }
    let j = i + 1 + (r - row_start(i));
    debug_assert!(j < s);
    (i, j)
}

/// A live state class of the table.
struct ClassSlot<S> {
    state: S,
    halted: bool,
    /// Number of nodes registered with this class (frees the slot at zero).
    refs: u32,
}

/// A pair of the class cells, per side `(class, rank in the bucket by node id, port)`:
/// side `a` ranks among the free ports on `(class, port)` if `free_port` (class 2), else
/// among its class's singletons (class 3), like side `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct ClassPair {
    pub(super) free_port: bool,
    pub(super) a: (u32, u64, Dir),
    pub(super) b: (u32, u64, Dir),
}

/// One row `(ca, pa, cb)` of the class-cell walk: bit `pb` of `mask` marks the effective
/// cell `(pa, pb)`, holding [`Row::pairs`] pairs of `na` members (free ports on
/// `(ca, pa)`, or singletons of `ca`) with `nb` singletons of `cb`.
#[derive(Clone, Copy, Debug)]
pub(super) struct Row {
    pub(super) free_port: bool,
    pub(super) ca: u32,
    pub(super) pa: Dir,
    pub(super) cb: u32,
    pub(super) mask: u8,
    na: u64,
    nb: u64,
}

impl Row {
    /// Pairs per effective cell: unordered within one singleton class.
    #[inline]
    pub(super) fn pairs(&self) -> u64 {
        if !self.free_port && self.ca == self.cb {
            self.na * self.na.saturating_sub(1) / 2
        } else {
            self.na * self.nb
        }
    }

    /// The `k`-th pair (`k < pairs()`) of the cell `(pa, pb)`; within one singleton
    /// class the lower rank takes `pa` (the counting convention).
    pub(super) fn pick(&self, pb: Dir, k: u64) -> ClassPair {
        let (ka, kb) = if !self.free_port && self.ca == self.cb {
            unrank_pair(k, self.na)
        } else {
            (k / self.nb, k % self.nb)
        };
        ClassPair {
            free_port: self.free_port,
            a: (self.ca, ka, self.pa),
            b: (self.cb, kb, pb),
        }
    }
}

/// Work counters of the lazy class-pair table since the index was built.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FillStats {
    /// Class pairs filled: an unordered pair counts when its first row (in either
    /// orientation) is filled since the slots' tenants last changed.
    pub(crate) pairs: u64,
    /// `transition_effective` evaluations spent filling rows.
    pub(crate) evaluations: u64,
    /// Live classes holding singletons now (the bound the pair count is held to).
    pub(crate) singleton_classes: u32,
}

/// The class table of the pair index; see the module docs.
pub(super) struct ClassTable<S> {
    slots: Vec<Option<ClassSlot<S>>>,
    free_slots: Vec<u32>,
    /// Bit `c` set ⇔ slot `c` is occupied.
    live: u64,
    /// Bucket sizes: per class and port the free ports (`g`), per class the singletons.
    g: Vec<[u64; PORT_CAP]>,
    s: Vec<u64>,
    free_total: u64,
    singleton_total: u64,
    /// Member mask: bit `c` set ⇔ `s[c] > 0`.
    single_classes: u64,
    /// Per port: member mask, bit `c` set ⇔ `g[c][pa] > 0`.
    free_classes: [u64; PORT_CAP],
    /// The rates: running effective counts of class 2 (free port × singleton) and
    /// class 3 (singleton × singleton) pairs.
    rates: [u64; 2],
    /// Per class pair ([`pair_at`]): byte `pa` is the row `(ca, pa, cb)`, valid (and
    /// else zero) iff bit `pa` of `filled` is set.
    effmask: Vec<u64>,
    filled: Vec<u8>,
    #[cfg(test)]
    fills: FillStats,
}

impl<S: Clone + PartialEq> ClassTable<S> {
    /// An empty table over `cap` class slots: [`CLASS_CAP`] for a built index, 0 (no
    /// allocation) for one that is not.
    pub(super) fn new(cap: usize) -> ClassTable<S> {
        ClassTable {
            slots: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            g: vec![[0; PORT_CAP]; cap],
            s: vec![0; cap],
            free_total: 0,
            singleton_total: 0,
            single_classes: 0,
            free_classes: [0; PORT_CAP],
            rates: [0; 2],
            effmask: vec![0; cap * cap],
            filled: vec![0; cap * cap],
            #[cfg(test)]
            fills: FillStats::default(),
        }
    }

    /// A table pinned to a snapshot's layout: the slots pre-seeded (zero refcounts,
    /// halted flags recomputed), the free-slot stack restored in pop order.
    ///
    /// # Errors
    /// A static description of an internally inconsistent layout.
    pub(super) fn pinned<P: Protocol<State = S>>(
        protocol: &P,
        slots: Vec<Option<S>>,
        free_slots: Vec<u32>,
    ) -> Result<ClassTable<S>, &'static str> {
        if slots.len() > CLASS_CAP {
            return Err("class table exceeds the class cap");
        }
        // The free stack must list exactly the empty slots, each once.
        let mut listed = free_slots.clone();
        listed.sort_unstable();
        if !(0..slots.len() as u32)
            .filter(|&c| slots[c as usize].is_none())
            .eq(listed)
        {
            return Err("free-slot stack disagrees with the slot list");
        }
        // `find` resolves nodes by state: duplicate states would alias two pinned ids
        // (a genuine run allocates a class only when no live one matches).
        let live: Vec<&S> = slots.iter().flatten().collect();
        if (0..live.len()).any(|i| live[i + 1..].contains(&live[i])) {
            return Err("two live classes share one state");
        }
        let mut table = ClassTable::new(CLASS_CAP);
        table.live = (0..slots.len())
            .filter(|&c| slots[c].is_some())
            .fold(0, |mask, c| mask | 1 << c);
        table.slots = slots
            .into_iter()
            .map(|slot| {
                slot.map(|state| ClassSlot {
                    halted: protocol.is_halted(&state),
                    state,
                    refs: 0,
                })
            })
            .collect();
        table.free_slots = free_slots;
        Ok(table)
    }

    /// The layout a snapshot pins: per slot the live class's state (`None` when freed)
    /// and the free-slot stack in pop order. Class ids depend on the allocation history
    /// and order the walk, so a resumed run must reproduce this layout exactly.
    pub(super) fn layout(&self) -> (Vec<Option<S>>, Vec<u32>) {
        let slots = self
            .slots
            .iter()
            .map(|slot| slot.as_ref().map(|class| class.state.clone()))
            .collect();
        (slots, self.free_slots.clone())
    }

    fn slot(&self, id: u32) -> &ClassSlot<S> {
        self.slots[id as usize]
            .as_ref()
            .expect("class id must be live")
    }

    pub(super) fn state(&self, id: u32) -> &S {
        &self.slot(id).state
    }

    pub(super) fn refs(&self, id: u32) -> u32 {
        self.slot(id).refs
    }

    /// The live class holding `state`, if any.
    pub(super) fn find(&self, state: &S) -> Option<u32> {
        bits(self.live).find(|&id| {
            self.slots[id as usize]
                .as_ref()
                .is_some_and(|class| class.state == *state)
        })
    }

    /// Allocates a class for `state`, held by no live class, in the most recently freed
    /// slot; [`Unindexable`] when [`CLASS_CAP`] classes are live.
    pub(super) fn allocate(&mut self, state: S, halted: bool) -> Result<u32, Unindexable> {
        if self.live.count_ones() as usize == CLASS_CAP {
            return Err(Unindexable);
        }
        let slot = ClassSlot {
            state,
            halted,
            refs: 0,
        };
        let id = if let Some(id) = self.free_slots.pop() {
            self.slots[id as usize] = Some(slot);
            id
        } else {
            self.slots.push(Some(slot));
            self.slots.len() as u32 - 1
        };
        self.live |= 1 << id;
        self.clear_rows(id);
        Ok(id)
    }

    pub(super) fn acquire(&mut self, id: u32) {
        self.slots[id as usize]
            .as_mut()
            .expect("class id must be live")
            .refs += 1;
    }

    /// Counts one node fewer; retires the class at zero and returns whether it did.
    pub(super) fn release(&mut self, id: u32) -> bool {
        let slot = self.slots[id as usize]
            .as_mut()
            .expect("class id must be live");
        slot.refs -= 1;
        if slot.refs > 0 {
            return false;
        }
        debug_assert_eq!(self.s[id as usize], 0);
        debug_assert_eq!(self.g[id as usize], [0; PORT_CAP]);
        self.slots[id as usize] = None;
        self.free_slots.push(id);
        self.live &= !(1 << id);
        true
    }

    /// Fills the row `(ca, pa, cb)` unless it is valid for the slots' current tenants.
    /// Entries depend only on the two states, so filling never disturbs the rates.
    /// `transition_effective` tries the first-argument order first, so effectiveness
    /// need not be symmetric in the two roles: rows are *directional*, and every reader
    /// takes the walk's orientation (free port's class first in class 2, lower class
    /// id first in class 3).
    fn ensure_row<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        dim: Dim,
        ca: u32,
        pa: Dir,
        cb: u32,
    ) {
        let at = pair_at(ca, cb);
        let bit = 1u8 << pa.index();
        if self.filled[at] & bit != 0 {
            return;
        }
        #[cfg(test)]
        {
            if self.filled[at] | self.filled[pair_at(cb, ca)] == 0 {
                self.fills.pairs += 1;
            }
            self.fills.evaluations += dim.port_count() as u64;
        }
        let row = u64::from(self.evaluate_row(protocol, dim, ca, pa, cb));
        let shift = 8 * pa.index();
        self.effmask[at] = (self.effmask[at] & !(0xFF << shift)) | (row << shift);
        self.filled[at] |= bit;
    }

    /// The row `(ca, pa, cb)` evaluated afresh: `ports` uncached evaluations of
    /// unbonded pairs, none effective with a halted class.
    fn evaluate_row<P: Protocol<State = S>>(
        &self,
        protocol: &P,
        dim: Dim,
        ca: u32,
        pa: Dir,
        cb: u32,
    ) -> u8 {
        let (a, b) = (self.slot(ca), self.slot(cb));
        if a.halted || b.halted {
            return 0;
        }
        let effective =
            |pb| crate::world::transition_effective(protocol, &a.state, pa, &b.state, pb, false);
        dim.dirs()
            .iter()
            .filter(|&&pb| effective(pb))
            .fold(0, |row, pb| row | 1 << pb.index())
    }

    /// Invalidates every row of slot `id`, which just took a new tenant: its own rows and
    /// its column in the live classes' rows (see the row invariant).
    fn clear_rows(&mut self, id: u32) {
        let own = pair_at(id, 0)..pair_at(id + 1, 0);
        self.filled[own.clone()].fill(0);
        self.effmask[own].fill(0);
        for c in bits(self.live) {
            self.filled[pair_at(c, id)] = 0;
            self.effmask[pair_at(c, id)] = 0;
        }
    }

    /// The row `(ca, pa, cb)`: bit `pb` set ⇔ the unbonded pair is effective. Valid
    /// under the row invariant.
    fn row(&self, ca: u32, pa: Dir, cb: u32) -> u8 {
        (self.effmask[pair_at(ca, cb)] >> (8 * pa.index())) as u8
    }

    /// Effective ordered port pairs of the class pair `(lo, hi)`, `lo` in the `pa` role:
    /// the popcount over its rows.
    fn epc(&self, lo: u32, hi: u32) -> u64 {
        u64::from(self.effmask[pair_at(lo, hi)].count_ones())
    }

    /// `Σ_{cb : s[cb] > 0} s[cb] · |{pb : eff(ca, pa, cb, pb)}|` — the class-2
    /// effective pairs one free port on `(ca, pa)` participates in.
    fn free_port_rate(&self, ca: u32, pa: Dir) -> u64 {
        bits(self.single_classes)
            .map(|cb| self.s[cb as usize] * u64::from(self.row(ca, pa, cb).count_ones()))
            .sum()
    }

    /// `Σ_{pa, ca : g[ca][pa] > 0} g[ca][pa] · |{pb : eff(ca, pa, c, pb)}|` — the
    /// class-2 effective pairs one singleton of class `c` participates in.
    fn singleton_class2_rate(&self, dim: Dim, c: u32) -> u64 {
        let mut sum = 0;
        for &pa in dim.dirs() {
            for ca in bits(self.free_classes[pa.index()]) {
                let ga = self.g[ca as usize][pa.index()];
                sum += ga * u64::from(self.row(ca, pa, c).count_ones());
            }
        }
        sum
    }

    /// `Σ_{cb : s[cb] > 0} s[cb] · epc(min(c, cb), max(c, cb))` — the class-3
    /// effective pairs one singleton of class `c` forms with the registered singletons,
    /// in the walk's orientation (the lower class id takes the `pa` role).
    fn singleton_class3_rate(&self, c: u32) -> u64 {
        bits(self.single_classes)
            .map(|cb| self.s[cb as usize] * self.epc(c.min(cb), c.max(cb)))
            .sum()
    }

    /// Registers one singleton of class `c`: fills the rows the invariant newly
    /// demands and adds the pairs it forms to the rates.
    pub(super) fn add_singleton<P: Protocol<State = S>>(&mut self, protocol: &P, dim: Dim, c: u32) {
        if self.s[c as usize] == 0 {
            // The class's first singleton: fill the rows the invariant now demands.
            for &pa in dim.dirs() {
                for ca in bits(self.free_classes[pa.index()]) {
                    self.ensure_row(protocol, dim, ca, pa, c);
                }
            }
            for cb in bits(self.single_classes | 1 << c) {
                let (lo, hi) = (c.min(cb), c.max(cb));
                for &pa in dim.dirs() {
                    self.ensure_row(protocol, dim, lo, pa, hi);
                }
            }
        }
        // Deltas are computed against the *pre-registration* totals: the new singleton
        // pairs with every existing free port and singleton.
        self.rates[0] += self.singleton_class2_rate(dim, c);
        self.rates[1] += self.singleton_class3_rate(c);
        self.s[c as usize] += 1;
        self.single_classes |= 1 << c;
        self.singleton_total += 1;
    }

    /// Drops one singleton of class `c` and the pairs it formed.
    pub(super) fn remove_singleton(&mut self, dim: Dim, c: u32) {
        self.s[c as usize] -= 1;
        if self.s[c as usize] == 0 {
            self.single_classes &= !(1 << c);
        }
        self.singleton_total -= 1;
        // Post-removal totals: exactly the pairs the departed singleton was part of.
        self.rates[0] -= self.singleton_class2_rate(dim, c);
        self.rates[1] -= self.singleton_class3_rate(c);
    }

    /// Registers one free port on `(c, pa)`: fills its rows if it is the first, and
    /// adds the pairs it forms to the rates.
    pub(super) fn add_free_port<P: Protocol<State = S>>(
        &mut self,
        protocol: &P,
        dim: Dim,
        c: u32,
        pa: Dir,
    ) {
        if self.g[c as usize][pa.index()] == 0 {
            // The first free port on `(c, pa)` pairs with every singleton.
            for cb in bits(self.single_classes) {
                self.ensure_row(protocol, dim, c, pa, cb);
            }
        }
        self.rates[0] += self.free_port_rate(c, pa);
        self.g[c as usize][pa.index()] += 1;
        self.free_classes[pa.index()] |= 1 << c;
        self.free_total += 1;
    }

    /// Drops one free port on `(c, pa)` and the pairs it formed.
    pub(super) fn remove_free_port(&mut self, c: u32, pa: Dir) {
        self.g[c as usize][pa.index()] -= 1;
        if self.g[c as usize][pa.index()] == 0 {
            self.free_classes[pa.index()] &= !(1 << c);
        }
        self.free_total -= 1;
        self.rates[0] -= self.free_port_rate(c, pa);
    }

    pub(super) fn singleton_total(&self) -> u64 {
        self.singleton_total
    }

    /// Permissible and effective pairs of decomposition classes 2–3, from the running
    /// aggregate: exact at every configuration, `O(1)`.
    pub(super) fn counts(&self, dim: Dim) -> BaseCounts {
        let p = dim.port_count() as u64;
        let s = self.singleton_total;
        BaseCounts {
            permissible: self.free_total * p * s + p * p * s.saturating_sub(1) * s / 2,
            effective: self.rates.iter().sum(),
        }
    }

    /// The one class-cell walk, over every row the invariant keeps valid: class-2 rows
    /// by free-port class, port and singleton class, then class-3 rows `ca ≤ cb` by
    /// lower class, upper class and port. The draws, the effective-set expansion and
    /// the self-check all consume it, so they agree on the cells by construction.
    /// Always inlined: a call per visited row made Counting-on-a-Line runs ~10% slower.
    #[inline(always)]
    pub(super) fn rows<B>(
        &self,
        dim: Dim,
        mut visit: impl FnMut(Row) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut row = |free_port, ca, pa: Dir, cb, na| {
            let (mask, nb) = (self.row(ca, pa, cb), self.s[cb as usize]);
            visit(Row {
                free_port,
                ca,
                pa,
                cb,
                mask,
                na,
                nb,
            })
        };
        let free = self.free_classes.iter().fold(0, |union, mask| union | mask);
        for ca in bits(free) {
            for &pa in dim.dirs() {
                let na = self.g[ca as usize][pa.index()];
                if na > 0 {
                    for cb in bits(self.single_classes) {
                        row(true, ca, pa, cb, na)?;
                    }
                }
            }
        }
        for ca in bits(self.single_classes) {
            for cb in bits(self.single_classes & (u64::MAX << ca)) {
                for &pa in dim.dirs() {
                    row(false, ca, pa, cb, self.s[ca as usize])?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The `idx`-th effective pair of the class cells in walk order: uniform over them
    /// when `idx` is uniform over `0..counts().effective`.
    pub(super) fn kth_effective(&self, dim: Dim, mut idx: u64) -> ClassPair {
        let found = self.rows(dim, |row| {
            if row.mask == 0 {
                return ControlFlow::Continue(());
            }
            let pairs = row.pairs();
            let hits = u64::from(row.mask.count_ones()) * pairs;
            if idx < hits {
                return ControlFlow::Break((row, idx));
            }
            idx -= hits;
            ControlFlow::Continue(())
        });
        let ControlFlow::Break((row, idx)) = found else {
            unreachable!("sample index exceeded the effective count");
        };
        let pairs = row.pairs();
        let pb = ports(row.mask).nth((idx / pairs) as usize);
        row.pick(pb.expect("the cell is in the row"), idx % pairs)
    }

    /// The `idx`-th *permissible* pair of the class cells: free port × singleton by
    /// free-port rank, peer port and singleton rank, then singleton² by unordered rank
    /// pair and port pair — uniform when `idx` is uniform over `0..counts().permissible`.
    pub(super) fn kth_permissible(&self, dim: Dim, mut idx: u64) -> ClassPair {
        let p = dim.port_count() as u64;
        let s = self.singleton_total;
        let ms = self.free_total * p * s;
        if idx < ms {
            let (ca, pa, ka) = self.global_free_port(idx / (p * s));
            let rem = idx % (p * s);
            let (cb, kb) = self.global_singleton(rem % s);
            let pb = dim.dirs()[(rem / s) as usize];
            let (a, b) = ((ca, ka, pa), (cb, kb, pb));
            return ClassPair {
                free_port: true,
                a,
                b,
            };
        }
        idx -= ms;
        let (i, j) = unrank_pair(idx / (p * p), s);
        let port_rank = idx % (p * p);
        let ((ca, ka), (cb, kb)) = (self.global_singleton(i), self.global_singleton(j));
        let [pa, pb] = [port_rank / p, port_rank % p].map(|k| dim.dirs()[k as usize]);
        let (a, b) = ((ca, ka, pa), (cb, kb, pb));
        ClassPair {
            free_port: false,
            a,
            b,
        }
    }

    /// The `k`-th singleton in the canonical global order (class-major, then rank).
    fn global_singleton(&self, mut k: u64) -> (u32, u64) {
        for c in bits(self.single_classes) {
            let sc = self.s[c as usize];
            if k < sc {
                return (c, k);
            }
            k -= sc;
        }
        unreachable!("singleton rank exceeded the population");
    }

    /// The `k`-th free port in the canonical global order (class-major, port, rank).
    fn global_free_port(&self, mut k: u64) -> (u32, Dir, u64) {
        for c in bits(self.free_classes.iter().fold(0, |union, mask| union | mask)) {
            for pa in 0..PORT_CAP {
                let g = self.g[c as usize][pa];
                if k < g {
                    return (c, Dir::from_index(pa), k);
                }
                k -= g;
            }
        }
        unreachable!("free-port rank exceeded the registration count");
    }

    /// Checks the table against the registrations and the protocol: `live` equals the
    /// occupied slots; each refcount equals the nodes naming the class (`node_classes`);
    /// each bucket size equals the stored bucket's (`bucket_len`: by class and free
    /// port, `None` for singletons) and the totals their sums; the member masks equal
    /// the non-empty buckets; every row of the walk is filled and equals a fresh
    /// evaluation; and the rates equal their recount. `O(n + classes²·ports²)`.
    pub(super) fn check<P: Protocol<State = S>>(
        &self,
        protocol: &P,
        dim: Dim,
        node_classes: impl Iterator<Item = u32>,
        bucket_len: impl Fn(u32, Option<Dir>) -> u64,
    ) -> Result<(), String> {
        fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
            ok.then_some(()).ok_or_else(message)
        }
        let occupied = (0..self.slots.len())
            .filter(|&c| self.slots[c].is_some())
            .fold(0, |mask, c| mask | 1 << c);
        ensure(self.live == occupied, || {
            format!(
                "live class mask {:#x} disagrees with the occupied slots {occupied:#x}",
                self.live
            )
        })?;
        let mut named = [0u32; CLASS_CAP];
        node_classes.for_each(|c| named[c as usize] += 1);
        let (mut singles, mut free) = (0, [0; PORT_CAP]);
        for c in 0..CLASS_CAP as u32 {
            let slot = self.slots.get(c as usize).and_then(Option::as_ref);
            let (refs, count) = (slot.map_or(0, |slot| slot.refs), named[c as usize]);
            ensure(refs == count, || {
                format!("class {c} counts {refs} references, {count} nodes name it")
            })?;
            let ports = (0..PORT_CAP).map(|pa| Some(Dir::from_index(pa)));
            for port in ports.chain([None]) {
                let size = port.map_or(self.s[c as usize], |pa| self.g[c as usize][pa.index()]);
                let stored = bucket_len(c, port);
                ensure(size == stored, || {
                    format!("class {c} bucket {port:?} counts {size}, stores {stored}")
                })?;
                *port.map_or(&mut singles, |pa| &mut free[pa.index()]) |= u64::from(size > 0) << c;
            }
        }
        let totals = (self.singleton_total, self.free_total);
        let sums = (self.s.iter().sum(), self.g.iter().flatten().sum());
        ensure(totals == sums, || {
            format!("totals {totals:?} disagree with the bucket sizes {sums:?}")
        })?;
        let (masks, sizes) = ((self.single_classes, self.free_classes), (singles, free));
        ensure(masks == sizes, || {
            format!("member masks {masks:x?} disagree with the bucket sizes {sizes:x?}")
        })?;
        let stale = self.rows(dim, |row| {
            let (ca, pa, cb, held) = (row.ca, row.pa, row.cb, row.mask);
            let fresh = self.evaluate_row(protocol, dim, ca, pa, cb);
            let message = if self.filled[pair_at(ca, cb)] & (1 << pa.index()) == 0 {
                format!("row ({ca}, {pa:?}, {cb}) is read but not filled")
            } else if held != fresh {
                format!(
                    "row ({ca}, {pa:?}, {cb}) holds {held:#b}, a fresh evaluation gives {fresh:#b}"
                )
            } else {
                return ControlFlow::Continue(());
            };
            ControlFlow::Break(message)
        });
        if let ControlFlow::Break(message) = stale {
            return Err(message);
        }
        // The rates recounted from the stored buckets and fresh evaluations over every
        // pair of live classes, independently of the masks, the rows and the deltas.
        let mut recount = [0, 0];
        for ca in bits(self.live) {
            let sa = bucket_len(ca, None);
            for &pa in dim.dirs() {
                let ga = bucket_len(ca, Some(pa));
                for cb in bits(self.live) {
                    let sb = bucket_len(cb, None);
                    let pairs = match ca.cmp(&cb) {
                        std::cmp::Ordering::Less => [ga * sb, sa * sb],
                        std::cmp::Ordering::Equal => [ga * sb, sa * sa.saturating_sub(1) / 2],
                        std::cmp::Ordering::Greater => [ga * sb, 0],
                    };
                    if pairs != [0, 0] {
                        let row = self.evaluate_row(protocol, dim, ca, pa, cb);
                        let effective = u64::from(row.count_ones());
                        recount = [0, 1].map(|k| recount[k] + effective * pairs[k]);
                    }
                }
            }
        }
        let running = self.rates;
        ensure(recount == running, || {
            format!("running rates {running:?} disagree with their recount {recount:?}")
        })
    }

    /// The row-fill work counters since the table was made.
    #[cfg(test)]
    pub(super) fn fill_stats(&self) -> FillStats {
        FillStats {
            singleton_classes: self.single_classes.count_ones(),
            ..self.fills
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Transition};
    use rand::Rng;
    use std::collections::{BTreeMap, HashSet};

    /// Twelve states whose effective (state, port) combinations are irregular and
    /// directional: a rule that fires but changes nothing blocks the swapped order, so
    /// effectiveness depends on which side takes `pa`. State 11 is halted.
    struct Mixer;

    impl Protocol for Mixer {
        type State = u8;

        fn initial_state(&self, _node: NodeId, _n: usize) -> u8 {
            0
        }

        fn transition(
            &self,
            a: &u8,
            pa: Dir,
            b: &u8,
            pb: Dir,
            bonded: bool,
        ) -> Option<Transition<u8>> {
            let mix = (7 * a + 3 * pa.index() as u8 + 5 * b + 11 * pb.index() as u8) % 5;
            let a = match mix {
                0 | 1 => (a + 1) % 12,
                2 => *a,
                _ => return None,
            };
            (!bonded).then_some(Transition {
                a,
                b: *b,
                bond: false,
            })
        }

        fn is_halted(&self, state: &u8) -> bool {
            *state == 11
        }
    }

    /// A registered node of the model: its class and its registrations.
    #[derive(Clone, Copy)]
    struct Node {
        class: u32,
        singleton: bool,
        free: u8,
    }

    /// The brute-force model: the live classes' states, the free-slot stack the
    /// table should pop, and the registered nodes.
    #[derive(Default)]
    struct Model {
        states: BTreeMap<u32, u8>,
        free_slots: Vec<u32>,
        nodes: Vec<Node>,
    }

    impl Model {
        fn refs(&self, c: u32) -> usize {
            self.nodes.iter().filter(|node| node.class == c).count()
        }

        /// Members of a bucket in node order: the free ports on `(c, pa)`, or the
        /// singletons of `c`.
        fn bucket(&self, c: u32, port: Option<Dir>) -> Vec<usize> {
            let member = |node: &Node| match port {
                Some(pa) => node.free & (1 << pa.index()) != 0,
                None => node.singleton,
            };
            (0..self.nodes.len())
                .filter(|&i| self.nodes[i].class == c && member(&self.nodes[i]))
                .collect()
        }

        fn effective(&self, ca: u32, pa: Dir, cb: u32, pb: Dir) -> bool {
            let (a, b) = (self.states[&ca], self.states[&cb]);
            a != 11 && b != 11 && crate::world::transition_effective(&Mixer, &a, pa, &b, pb, false)
        }

        /// Every effective pair of the class cells, by node, recounted over node pairs:
        /// class 2 from every free port against every singleton, class 3 from every
        /// unordered singleton pair with the lower class (or, within one class, the
        /// lower node) in the `pa` role.
        fn effective_node_pairs(&self, dim: Dim) -> u64 {
            let singles: Vec<usize> = (0..self.nodes.len())
                .filter(|&i| self.nodes[i].singleton)
                .collect();
            let mut count = 0;
            for (i, x) in self.nodes.iter().enumerate() {
                for pa in ports(x.free) {
                    for &y in &singles {
                        count += dim
                            .dirs()
                            .iter()
                            .filter(|&&pb| self.effective(x.class, pa, self.nodes[y].class, pb))
                            .count();
                    }
                }
                if !x.singleton {
                    continue;
                }
                for &j in singles.iter().filter(|&&j| j > i) {
                    let (lo, hi) = if x.class <= self.nodes[j].class {
                        (x.class, self.nodes[j].class)
                    } else {
                        (self.nodes[j].class, x.class)
                    };
                    for &pa in dim.dirs() {
                        count += dim
                            .dirs()
                            .iter()
                            .filter(|&&pb| self.effective(lo, pa, hi, pb))
                            .count();
                    }
                }
            }
            count as u64
        }

        /// The effective class-cell pairs in the canonical order: class-2 cells by
        /// free-port class, port, singleton class and peer port, then class-3 cells by
        /// lower class, upper class and port pair; ranks lexicographic inside a cell.
        fn effective_class_pairs(&self, dim: Dim) -> Vec<ClassPair> {
            let ids: Vec<u32> = self.states.keys().copied().collect();
            let mut out = Vec::new();
            for &ca in &ids {
                for &pa in dim.dirs() {
                    for &cb in &ids {
                        let (g, s) = (
                            self.bucket(ca, Some(pa)).len() as u64,
                            self.bucket(cb, None).len() as u64,
                        );
                        for &pb in dim
                            .dirs()
                            .iter()
                            .filter(|&&pb| self.effective(ca, pa, cb, pb))
                        {
                            for (ka, kb) in (0..g).flat_map(|ka| (0..s).map(move |kb| (ka, kb))) {
                                out.push(ClassPair {
                                    free_port: true,
                                    a: (ca, ka, pa),
                                    b: (cb, kb, pb),
                                });
                            }
                        }
                    }
                }
            }
            for &ca in &ids {
                for &cb in ids.iter().filter(|&&cb| cb >= ca) {
                    let (sa, sb) = (
                        self.bucket(ca, None).len() as u64,
                        self.bucket(cb, None).len() as u64,
                    );
                    for &pa in dim.dirs() {
                        for &pb in dim
                            .dirs()
                            .iter()
                            .filter(|&&pb| self.effective(ca, pa, cb, pb))
                        {
                            for ka in 0..sa {
                                let kbs = if ca == cb { ka + 1..sa } else { 0..sb };
                                for kb in kbs {
                                    out.push(ClassPair {
                                        free_port: false,
                                        a: (ca, ka, pa),
                                        b: (cb, kb, pb),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            out
        }
    }

    /// The class of `state`, allocated in the model's predicted slot when no live
    /// class holds it.
    fn class_for(table: &mut ClassTable<u8>, model: &mut Model, state: u8) -> u32 {
        if let Some(c) = table.find(&state) {
            assert_eq!(model.states[&c], state);
            return c;
        }
        assert!(
            !model.states.values().any(|&s| s == state),
            "live state {state} not found"
        );
        let expected = model
            .free_slots
            .pop()
            .unwrap_or(model.states.len() as u32 + model.free_slots.len() as u32);
        let c = table
            .allocate(state, Mixer.is_halted(&state))
            .unwrap_or_else(|_| panic!("under the cap"));
        assert_eq!(
            c, expected,
            "allocation reuses the most recently freed slot"
        );
        model.states.insert(c, state);
        c
    }

    fn drop_regs(table: &mut ClassTable<u8>, node: &mut Node, dim: Dim) {
        if std::mem::take(&mut node.singleton) {
            table.remove_singleton(dim, node.class);
        }
        for pa in ports(std::mem::take(&mut node.free)) {
            table.remove_free_port(node.class, pa);
        }
    }

    fn release(table: &mut ClassTable<u8>, model: &mut Model, c: u32) {
        let retired = table.release(c);
        assert_eq!(
            retired,
            model.refs(c) == 0,
            "a class retires with its last node"
        );
        if retired {
            model.states.remove(&c);
            model.free_slots.push(c);
        }
    }

    /// Random allocate/register/drop/retire sequences against a brute-force model: after
    /// every step the self-check passes, the rates and permissible count equal a
    /// recount over node pairs, the `k`-th effective pair is the `k`-th of the cells in
    /// canonical order, and the permissible draws are a bijection onto the cells.
    #[test]
    fn the_class_table_matches_a_brute_force_model() {
        let dim = Dim::Two;
        let p = dim.port_count() as u64;
        for seed in 0..4 {
            let mut rng = crate::rng::seeded(seed);
            let mut table = ClassTable::<u8>::new(CLASS_CAP);
            let mut model = Model::default();
            for step in 0..600 {
                let i = rng.gen_range(0..model.nodes.len().max(1));
                match rng.gen_range(0..10u32) {
                    // A node joins in a random state.
                    0 | 1 if model.nodes.len() < 20 => {
                        let class = class_for(&mut table, &mut model, rng.gen_range(0..12));
                        table.acquire(class);
                        model.nodes.push(Node {
                            class,
                            singleton: false,
                            free: 0,
                        });
                    }
                    // A node leaves.
                    2 if !model.nodes.is_empty() => {
                        let mut node = model.nodes.swap_remove(i);
                        drop_regs(&mut table, &mut node, dim);
                        release(&mut table, &mut model, node.class);
                    }
                    // A node changes state: registrations are keyed by class.
                    3 | 4 if !model.nodes.is_empty() => {
                        let mut node = model.nodes[i];
                        drop_regs(&mut table, &mut node, dim);
                        let class = class_for(&mut table, &mut model, rng.gen_range(0..12));
                        table.acquire(class);
                        model.nodes[i] = Node { class, ..node };
                        release(&mut table, &mut model, node.class);
                    }
                    // A multi-component node's port opens or closes.
                    5..=7 if !model.nodes.is_empty() && !model.nodes[i].singleton => {
                        let pa = dim.dirs()[rng.gen_range(0..dim.dirs().len())];
                        let node = &mut model.nodes[i];
                        node.free ^= 1 << pa.index();
                        if node.free & (1 << pa.index()) != 0 {
                            table.add_free_port(&Mixer, dim, node.class, pa);
                        } else {
                            table.remove_free_port(node.class, pa);
                        }
                    }
                    // A node becomes a free singleton or joins a component.
                    _ if !model.nodes.is_empty() && model.nodes[i].free == 0 => {
                        let node = &mut model.nodes[i];
                        node.singleton = !node.singleton;
                        if node.singleton {
                            table.add_singleton(&Mixer, dim, node.class);
                        } else {
                            table.remove_singleton(dim, node.class);
                        }
                    }
                    _ => continue,
                }
                let named = model.nodes.iter().map(|node| node.class);
                let bucket_len = |c, port| model.bucket(c, port).len() as u64;
                if let Err(message) = table.check(&Mixer, dim, named, bucket_len) {
                    panic!("seed {seed} step {step}: {message}");
                }
                let singles = model.nodes.iter().filter(|node| node.singleton).count() as u64;
                let free: u64 = model
                    .nodes
                    .iter()
                    .map(|node| u64::from(node.free.count_ones()))
                    .sum();
                let counts = table.counts(dim);
                let permissible =
                    free * p * singles + p * p * singles * singles.saturating_sub(1) / 2;
                assert_eq!(counts.permissible, permissible, "seed {seed} step {step}");
                assert_eq!(
                    counts.effective,
                    model.effective_node_pairs(dim),
                    "seed {seed} step {step}: rates"
                );
                let cells = model.effective_class_pairs(dim);
                assert_eq!(
                    cells.len() as u64,
                    counts.effective,
                    "seed {seed} step {step}"
                );
                for (k, &cell) in cells.iter().enumerate() {
                    assert_eq!(
                        table.kth_effective(dim, k as u64),
                        cell,
                        "seed {seed} step {step} k {k}"
                    );
                }
                let mut drawn = HashSet::new();
                for k in 0..counts.permissible {
                    let pair = table.kth_permissible(dim, k);
                    let ((ca, ka, pa), (cb, kb, pb)) = (pair.a, pair.b);
                    let port = pair.free_port.then_some(pa);
                    assert!(
                        ka < model.bucket(ca, port).len() as u64
                            && kb < model.bucket(cb, None).len() as u64
                    );
                    assert!(
                        pair.free_port || (ca, ka) < (cb, kb),
                        "unordered singleton pairs once"
                    );
                    assert!(dim.contains(pa) && dim.contains(pb));
                    let key = (pair.free_port, ca, ka, pa.index(), cb, kb, pb.index());
                    assert!(
                        drawn.insert(key),
                        "seed {seed} step {step}: {pair:?} drawn twice"
                    );
                }
            }
        }
    }

    #[test]
    fn allocation_refuses_past_the_cap() {
        let mut table = ClassTable::<u8>::new(CLASS_CAP);
        for state in 0..CLASS_CAP as u8 {
            assert!(table.allocate(state, false).is_ok());
        }
        assert!(table.allocate(CLASS_CAP as u8, false).is_err());
        table.acquire(5);
        assert!(table.release(5));
        assert_eq!(table.allocate(CLASS_CAP as u8, false).ok(), Some(5));
    }
}
