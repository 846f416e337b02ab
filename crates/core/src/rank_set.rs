//! An ordered set over a dense universe `0..universe` with logarithmic updates and
//! selection: a bitset plus a Fenwick tree over the per-word popcounts.
//!
//! The permissible-pair index keeps its per-shard buckets in these sets. A bucket
//! change costs `O(log n)` (flip one bit, update one Fenwick path) instead of the
//! `O(bucket)` memmove of a sorted `Vec`, while `select(k)` — the `k`-th smallest
//! member, which is all the canonical sampling walks need — stays `O(log n)` and
//! iteration stays in ascending order. Storage is allocated on the first insert, so
//! the many buckets that never receive a member (classes × ports × shards) cost
//! nothing beyond their header.

/// Members per bitset word.
const WORD: usize = 64;

/// See the module docs.
pub(crate) struct RankSet {
    universe: usize,
    /// Membership bits: word `w` holds members `64w..64w + 64`. Empty until the
    /// first insert.
    words: Vec<u64>,
    /// Fenwick tree over `words[w].count_ones()`: entry `i` (1-based) sums the words
    /// `i − lowbit(i) .. i`.
    tree: Vec<u32>,
    len: usize,
}

/// The shared empty set that lookups of never-created buckets resolve to.
pub(crate) static EMPTY: RankSet = RankSet::new(0);

impl RankSet {
    /// An empty set over `0..universe` (allocates nothing yet).
    pub(crate) const fn new(universe: usize) -> RankSet {
        RankSet {
            universe,
            words: Vec::new(),
            tree: Vec::new(),
            len: 0,
        }
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether `x` is a member.
    pub(crate) fn contains(&self, x: usize) -> bool {
        self.words
            .get(x / WORD)
            .is_some_and(|&bits| bits & (1 << (x % WORD)) != 0)
    }

    /// Inserts `x`; returns whether it was new.
    pub(crate) fn insert(&mut self, x: usize) -> bool {
        debug_assert!(
            x < self.universe,
            "{x} outside the universe 0..{}",
            self.universe
        );
        if self.words.is_empty() {
            let words = self.universe.div_ceil(WORD);
            self.words = vec![0; words];
            self.tree = vec![0; words];
        }
        let (w, bit) = (x / WORD, 1u64 << (x % WORD));
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.len += 1;
        let mut i = w + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] += 1;
            i += i & i.wrapping_neg();
        }
        true
    }

    /// Removes `x`; returns whether it was present.
    pub(crate) fn remove(&mut self, x: usize) -> bool {
        if !self.contains(x) {
            return false;
        }
        let w = x / WORD;
        self.words[w] &= !(1u64 << (x % WORD));
        self.len -= 1;
        let mut i = w + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] -= 1;
            i += i & i.wrapping_neg();
        }
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
        // Fenwick descent: the longest word prefix holding at most `k` members.
        let words = self.tree.len();
        let mut pos = 0;
        let mut rem = k as u32;
        let mut step = 1 << (usize::BITS - 1 - words.leading_zeros());
        while step > 0 {
            let next = pos + step;
            if next <= words && self.tree[next - 1] <= rem {
                pos = next;
                rem -= self.tree[next - 1];
            }
            step >>= 1;
        }
        pos * WORD + select_in_word(self.words[pos], rem)
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let at = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * WORD + at
                })
            })
        })
    }
}

/// Position of the `k`-th set bit of `bits` (`k < popcount`): halve the word by
/// popcount three times, then strip the remaining low bits of the last byte.
fn select_in_word(mut bits: u64, mut k: u32) -> usize {
    let mut base = 0;
    for width in [32, 16, 8] {
        let low = (bits & ((1u64 << width) - 1)).count_ones();
        if k >= low {
            k -= low;
            bits >>= width;
            base += width;
        }
    }
    for _ in 0..k {
        bits &= bits - 1;
    }
    base + bits.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::BTreeSet;

    /// Checks every observable of `set` against the model.
    fn assert_agrees(set: &RankSet, model: &BTreeSet<usize>, universe: usize) {
        assert_eq!(set.len(), model.len());
        let members: Vec<usize> = set.iter().collect();
        let expected: Vec<usize> = model.iter().copied().collect();
        assert_eq!(members, expected, "iteration order");
        for (k, &x) in expected.iter().enumerate() {
            assert_eq!(set.select(k), x, "select({k})");
        }
        for x in 0..universe {
            assert_eq!(set.contains(x), model.contains(&x), "contains({x})");
        }
    }

    #[test]
    fn matches_a_btreeset_under_random_updates() {
        for (seed, universe) in [0usize, 1, 63, 64, 65, 1000].into_iter().enumerate() {
            let mut rng = crate::rng::seeded(seed as u64);
            let mut set = RankSet::new(universe);
            let mut model = BTreeSet::new();
            assert_agrees(&set, &model, universe);
            if universe == 0 {
                // An empty trailing shard range: nothing to insert, lookups still work.
                assert!(!set.remove(0));
                assert!(!set.contains(0));
                assert_eq!(set.iter().count(), 0);
                continue;
            }
            for round in 0..4 * universe + 50 {
                let x = rng.gen_range(0..universe);
                // Bias towards inserts early and removals late so both the dense and
                // the sparse regimes are visited.
                if rng.gen_range(0..4 * universe + 50) >= round {
                    assert_eq!(set.insert(x), model.insert(x), "insert({x})");
                } else {
                    assert_eq!(set.remove(x), model.remove(&x), "remove({x})");
                }
                if round % 17 == 0 {
                    assert_agrees(&set, &model, universe);
                }
            }
            assert_agrees(&set, &model, universe);
            // Drain completely, then refill: the Fenwick tree must return to zero.
            for x in model.clone() {
                assert!(set.remove(x));
                model.remove(&x);
            }
            assert_agrees(&set, &model, universe);
            for x in (0..universe).rev() {
                assert!(set.insert(x));
                model.insert(x);
            }
            assert_agrees(&set, &model, universe);
        }
    }

    #[test]
    fn select_in_word_finds_every_bit() {
        for bits in [1u64, u64::MAX, 0x8000_0000_0000_0001, 0xF0F0_0000_0F0F_0001] {
            let positions: Vec<usize> = (0..64).filter(|&b| bits & (1 << b) != 0).collect();
            for (k, &at) in positions.iter().enumerate() {
                assert_eq!(select_in_word(bits, k as u32), at, "bits={bits:#x} k={k}");
            }
        }
    }

    #[test]
    fn untouched_sets_allocate_nothing() {
        let set = RankSet::new(1 << 20);
        assert!(set.words.is_empty() && set.tree.is_empty());
        assert_eq!(EMPTY.len(), 0);
    }
}
