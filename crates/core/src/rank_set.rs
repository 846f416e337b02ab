//! An ordered set over a dense universe `0..universe` with logarithmic updates and
//! selection: up to [`INLINE`] members kept inline and sorted, then a bitset plus a
//! Fenwick tree over the per-word popcounts.
//!
//! The permissible-pair index keeps its buckets in these sets. Most buckets are tiny:
//! a constructor's unique leader sits alone in its class's free-port buckets, and it
//! moves to a fresh node (usually a fresh class) on almost every effective step. So a
//! set holds its first [`INLINE`] members in a sorted inline array — an update is a
//! shift of at most 8 words, `select(k)` one load, and nothing is allocated — and only
//! the ninth insert *spills* it into the bitset form, which it then keeps for good
//! (draining a spilled set leaves it spilled, so a bucket that oscillates around the
//! boundary does not reallocate). A spilled set changes in `O(log n)` (flip one bit,
//! update one Fenwick path) instead of the `O(bucket)` memmove of a sorted `Vec`.
//!
//! `select(k)` on a spilled set descends the Fenwick tree in a fixed number of rounds
//! with no data-dependent branch — a probe past the last word is clamped into the
//! array and reads as full, so both arrays keep their exact length — then finds the
//! bit inside the word with a broadword byte-prefix count and a 2 KB in-byte table
//! ([`select_in_word`]). Both forms iterate in ascending order, and
//! `select(k)` is the `k`-th smallest member in either, so ranks, draws and walk
//! orders do not depend on the form. The many buckets that never receive a member
//! (classes × ports) cost nothing beyond their header.

/// Members per bitset word.
const WORD: usize = 64;

/// Members a set holds inline before it allocates its bitset.
const INLINE: usize = 8;

/// See the module docs.
pub(crate) struct RankSet {
    universe: usize,
    len: usize,
    /// While the set is not spilled: its members in ascending order, in `..len`.
    inline: [u32; INLINE],
    /// Membership bits: word `w` holds members `64w..64w + 64`. Empty until the set
    /// spills, and never empty after.
    words: Vec<u64>,
    /// Fenwick tree over `words[w].count_ones()`: entry `i` (1-based) sums the words
    /// `i − lowbit(i) .. i`.
    tree: Vec<u32>,
}

/// The shared empty set that lookups of never-created buckets resolve to.
pub(crate) static EMPTY: RankSet = RankSet::new(0);

#[cfg(test)]
thread_local! {
    /// Sets spilled on this thread (test-only: pins which buckets stay inline).
    static SPILLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Sets spilled on the calling thread so far (see [`RankSet::insert`]).
#[cfg(test)]
pub(crate) fn spills() -> u64 {
    SPILLS.with(std::cell::Cell::get)
}

impl RankSet {
    /// An empty set over `0..universe` (allocates nothing yet).
    pub(crate) const fn new(universe: usize) -> RankSet {
        RankSet {
            universe,
            len: 0,
            inline: [0; INLINE],
            words: Vec::new(),
            tree: Vec::new(),
        }
    }

    /// Whether the set has moved to the bitset form.
    pub(crate) fn spilled(&self) -> bool {
        !self.words.is_empty()
    }

    /// The inline members, ascending (none once spilled).
    fn inline_members(&self) -> &[u32] {
        &self.inline[..if self.spilled() { 0 } else { self.len }]
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether `x` is a member.
    pub(crate) fn contains(&self, x: usize) -> bool {
        if self.spilled() {
            self.words
                .get(x / WORD)
                .is_some_and(|&bits| bits & (1 << (x % WORD)) != 0)
        } else {
            self.inline_members().iter().any(|&m| m as usize == x)
        }
    }

    /// Inserts `x`; returns whether it was new. The insert that would make an inline
    /// set's ninth member spills it.
    pub(crate) fn insert(&mut self, x: usize) -> bool {
        debug_assert!(
            x < self.universe,
            "{x} outside the universe 0..{}",
            self.universe
        );
        if !self.spilled() {
            let at = self.inline_members().partition_point(|&m| (m as usize) < x);
            if at < self.len && self.inline[at] as usize == x {
                return false;
            }
            if self.len < INLINE {
                self.inline.copy_within(at..self.len, at + 1);
                self.inline[at] = x as u32;
                self.len += 1;
                return true;
            }
            self.spill();
        }
        let (w, bit) = (x / WORD, 1u64 << (x % WORD));
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.len += 1;
        self.add_to_word(w, 1);
        true
    }

    /// Moves the inline members into a freshly allocated bitset and Fenwick tree.
    fn spill(&mut self) {
        let words = self.universe.div_ceil(WORD);
        self.words = vec![0; words];
        self.tree = vec![0; words];
        for k in 0..self.len {
            let x = self.inline[k] as usize;
            self.words[x / WORD] |= 1 << (x % WORD);
            self.add_to_word(x / WORD, 1);
        }
        #[cfg(test)]
        SPILLS.with(|spills| spills.set(spills.get() + 1));
    }

    /// Adds `delta` to word `w`'s count along its Fenwick path.
    fn add_to_word(&mut self, w: usize, delta: i32) {
        let mut i = w + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = self.tree[i - 1].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Removes `x`; returns whether it was present.
    pub(crate) fn remove(&mut self, x: usize) -> bool {
        if !self.spilled() {
            let Some(at) = self.inline_members().iter().position(|&m| m as usize == x) else {
                return false;
            };
            self.inline.copy_within(at + 1..self.len, at);
            self.len -= 1;
            return true;
        }
        if !self.contains(x) {
            return false;
        }
        let w = x / WORD;
        self.words[w] &= !(1u64 << (x % WORD));
        self.len -= 1;
        self.add_to_word(w, -1);
        true
    }

    /// The `k`-th smallest member (`k` counted from 0).
    ///
    /// # Panics
    /// Panics if `k ≥ len()`.
    pub(crate) fn select(&self, k: usize) -> usize {
        assert!(
            k < self.len,
            "rank {k} outside a set of {} members",
            self.len
        );
        if !self.spilled() {
            return self.inline[k] as usize;
        }
        // Fenwick descent: the longest word prefix holding at most `k` members, in a
        // fixed number of rounds. A probe past the last word reads as full (`u32::MAX`,
        // more than any `rem`), so the clamped index needs no bounds branch and the
        // step needs no data-dependent one.
        let words = self.tree.len();
        let mut pos = 0;
        let mut rem = k as u32;
        let mut step = 1 << (usize::BITS - 1 - words.leading_zeros());
        while step > 0 {
            let next = pos + step;
            let count = self.tree[next.min(words) - 1] | u32::from(next > words).wrapping_neg();
            let take = count <= rem;
            pos += step & usize::from(take).wrapping_neg();
            rem -= count & u32::from(take).wrapping_neg();
            step >>= 1;
        }
        pos * WORD + select_in_word(self.words[pos], rem)
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let inline = self.inline_members().iter().map(|&m| m as usize);
        inline.chain(self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let at = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * WORD + at
                })
            })
        }))
    }
}

/// `SELECT_IN_BYTE[b | r << 8]`: the position of the `r`-th set bit (from 0) of the
/// byte `b`, for `r` below its popcount (8, never read, otherwise).
const SELECT_IN_BYTE: [u8; 256 * 8] = {
    let mut table = [8u8; 256 * 8];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut rank) = (0, 0);
        while bit < 8 {
            if (byte >> bit) & 1 == 1 {
                table[byte | rank << 8] = bit as u8;
                rank += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Position of the `k`-th set bit of `bits` (`k < popcount`), broadword: the bytes'
/// popcount prefix sums locate the byte holding it in a few multiplies, with no
/// branch, and [`SELECT_IN_BYTE`] finishes inside that byte.
fn select_in_word(bits: u64, k: u32) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    debug_assert!(k < bits.count_ones(), "rank {k} outside the word {bits:#x}");
    // Per-byte popcounts, then their prefix sums: byte `i` of `sums` counts the set
    // bits of bytes `0..=i` (at most 64).
    let mut counts = bits - ((bits >> 1) & 0x5555_5555_5555_5555);
    counts = (counts & 0x3333_3333_3333_3333) + ((counts >> 2) & 0x3333_3333_3333_3333);
    counts = (counts + (counts >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    let sums = counts.wrapping_mul(ONES);
    // Byte `i` of `(k | 0x80) − sums` keeps its high bit iff `sums_i ≤ k`; no byte
    // borrows, as both sides stay below 128. Those bytes all precede the target one,
    // so their number is the target byte's index.
    let below = ((((u64::from(k) * ONES) | HIGHS) - sums) & HIGHS) >> 7;
    let shift = (below.wrapping_mul(ONES) >> 56) * 8;
    // `k` minus the members of the bytes before the target byte.
    let rank = u64::from(k) - (((sums << 8) >> shift) & 0xFF);
    let byte = (bits >> shift) & 0xFF;
    shift as usize + SELECT_IN_BYTE[(byte | rank << 8) as usize] as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};
    use std::collections::BTreeSet;

    /// Checks every observable of `set` against the model; membership at every value
    /// of `probes`.
    fn assert_agrees(set: &RankSet, model: &BTreeSet<usize>, probes: &[usize]) {
        assert_eq!(set.len(), model.len());
        let members: Vec<usize> = set.iter().collect();
        let expected: Vec<usize> = model.iter().copied().collect();
        assert_eq!(members, expected, "iteration order");
        for (k, &x) in expected.iter().enumerate() {
            assert_eq!(set.select(k), x, "select({k})");
        }
        for &x in probes.iter().chain(&expected) {
            assert_eq!(set.contains(x), model.contains(&x), "contains({x})");
        }
    }

    /// Every universe up to 66 words (one that is not a power of two of them) is probed
    /// whole; the 2²⁰ one draws its members from a pool of 40 values and is probed at
    /// the pool and its neighbours.
    #[test]
    fn matches_a_btreeset_under_random_updates() {
        let universes = [0usize, 1, 8, 9, 63, 64, 65, 300, 1000, 66 * WORD, 1 << 20];
        for (seed, universe) in universes.into_iter().enumerate() {
            let mut rng = crate::rng::seeded(seed as u64);
            let pool: Vec<usize> = if universe <= 66 * WORD {
                (0..universe).collect()
            } else {
                let mut pool: Vec<usize> = (0..38).map(|_| rng.gen_range(0..universe)).collect();
                pool.extend([0, universe - 1]);
                pool
            };
            let probes: Vec<usize> = if universe <= 66 * WORD {
                pool.clone()
            } else {
                pool.iter()
                    .flat_map(|&x| [x.saturating_sub(1), x, x + 1])
                    .collect()
            };
            let mut set = RankSet::new(universe);
            let mut model = BTreeSet::new();
            assert_agrees(&set, &model, &probes);
            if universe == 0 {
                // An empty universe: nothing to insert, lookups still work.
                assert!(!set.remove(0));
                assert!(!set.contains(0));
                assert_eq!(set.iter().count(), 0);
                continue;
            }
            let rounds = 4 * pool.len() + 50;
            for round in 0..rounds {
                let x = pool[rng.gen_range(0..pool.len())];
                // Bias towards inserts early and removals late so both the dense and
                // the sparse regimes are visited.
                if rng.gen_range(0..rounds) >= round {
                    assert_eq!(set.insert(x), model.insert(x), "insert({x})");
                } else {
                    assert_eq!(set.remove(x), model.remove(&x), "remove({x})");
                }
                if round % 17 == 0 {
                    assert_agrees(&set, &model, &probes);
                }
            }
            assert_agrees(&set, &model, &probes);

            // The inline/spill boundary in both directions, on a fresh set: eight
            // members stay inline, the ninth spills, and a drained set stays spilled
            // and refills in the bitset form.
            let mut set = RankSet::new(universe);
            let mut model = BTreeSet::new();
            let mut order = pool.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            for &x in order.iter().take(INLINE) {
                assert!(set.insert(x));
                model.insert(x);
                assert!(
                    !set.spilled(),
                    "universe {universe}: spilled at {}",
                    model.len()
                );
                assert_agrees(&set, &model, &probes);
            }
            if let Some(&ninth) = order.get(INLINE) {
                assert!(!set.insert(order[0]), "a duplicate never spills");
                assert!(!set.spilled());
                assert!(set.insert(ninth));
                model.insert(ninth);
                assert!(
                    set.spilled(),
                    "universe {universe}: the ninth member spills"
                );
                assert_agrees(&set, &model, &probes);
            }
            // Drain completely, then refill: the Fenwick tree must return to zero.
            for x in model.clone() {
                assert!(set.remove(x));
                model.remove(&x);
            }
            assert_eq!(
                set.spilled(),
                universe > INLINE,
                "a drained set stays spilled"
            );
            assert_agrees(&set, &model, &probes);
            for &x in pool.iter().rev() {
                assert_eq!(set.insert(x), model.insert(x));
            }
            assert_agrees(&set, &model, &probes);
        }
    }

    /// The bit-strip reference: drop the `k` lowest set bits, take the next.
    fn naive_select(mut bits: u64, k: u32) -> usize {
        for _ in 0..k {
            bits &= bits - 1;
        }
        bits.trailing_zeros() as usize
    }

    #[test]
    fn select_in_word_finds_every_bit() {
        let mut rng = crate::rng::seeded(7);
        let fixed = [1u64, u64::MAX, 0x8000_0000_0000_0001, 0xF0F0_0000_0F0F_0001];
        // Random words at every density: a uniform word ANDed or ORed with others.
        let random = (0..10_000).map(|i| {
            let w = rng.next_u64();
            match i % 4 {
                0 => w,
                1 => w & rng.next_u64() & rng.next_u64(),
                2 => w | rng.next_u64() | rng.next_u64(),
                _ => 1 << (w % 64) | 1 << rng.gen_range(0u64..64),
            }
        });
        for bits in fixed.into_iter().chain(random) {
            for k in 0..bits.count_ones() {
                assert_eq!(
                    select_in_word(bits, k),
                    naive_select(bits, k),
                    "bits={bits:#x} k={k}"
                );
            }
        }
    }

    #[test]
    fn untouched_sets_allocate_nothing() {
        let mut set = RankSet::new(1 << 20);
        assert!(set.words.is_empty() && set.tree.is_empty());
        assert_eq!(EMPTY.len(), 0);
        // Up to eight members live inline.
        for x in 0..INLINE {
            set.insert(x * 1000);
        }
        assert!(set.words.is_empty() && set.tree.is_empty());
        // The ninth allocates both arrays, at their exact length.
        set.insert(5);
        assert_eq!((set.words.len(), set.tree.len()), (1 << 14, 1 << 14));
        let mut odd = RankSet::new(65 * WORD + 1);
        for x in 0..=INLINE {
            odd.insert(x);
        }
        assert_eq!((odd.words.len(), odd.tree.len()), (66, 66));
    }
}
