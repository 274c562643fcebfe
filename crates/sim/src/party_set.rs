//! [`PartySet`]: the one set type the protocol state machines count votes
//! with.

/// A set of player ids — who has voted, echoed, accused or opened — stored
/// as a bitset. Ids 0–63 live in one inline word; a heap tail is allocated
/// only once an id past 63 is inserted, so there is no player cap and no
/// run at `n ≤ 64` allocates. Recording a vote is one word-OR and counting
/// a quorum is a popcount, instead of a `BTreeSet` node allocation per vote:
/// this sits on the per-delivery hot path of every broadcast, agreement,
/// sharing and opening instance in the system.
#[derive(Debug, Clone, Default)]
pub struct PartySet {
    /// Ids 0–63.
    low: u64,
    /// Ids from 64 on, 64 per word; grown only to the highest word inserted.
    high: Vec<u64>,
}

impl PartySet {
    /// The empty set.
    pub const fn new() -> Self {
        PartySet {
            low: 0,
            high: Vec::new(),
        }
    }

    /// Inserts `id`; returns whether it was not already present.
    pub fn insert(&mut self, id: usize) -> bool {
        let bit = 1u64 << (id % 64);
        let word = match id / 64 {
            0 => &mut self.low,
            w => {
                if w > self.high.len() {
                    self.high.resize(w, 0);
                }
                &mut self.high[w - 1]
            }
        };
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: usize) -> bool {
        self.word(id / 64) >> (id % 64) & 1 == 1
    }

    /// The number of ids present.
    pub fn len(&self) -> usize {
        ones(self.low) + self.high.iter().map(|&w| ones(w)).sum::<usize>()
    }

    /// Whether no id is present.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.iter().all(|&w| w == 0)
    }

    /// `|self ∪ other|`, without building the union.
    pub fn union_len(&self, other: &PartySet) -> usize {
        let words = 1 + self.high.len().max(other.high.len());
        (0..words).map(|w| ones(self.word(w) | other.word(w))).sum()
    }

    /// Word `w` of the bitset (ids `64w .. 64w + 63`), zero past the tail.
    fn word(&self, w: usize) -> u64 {
        match w {
            0 => self.low,
            w => self.high.get(w - 1).copied().unwrap_or(0),
        }
    }
}

fn ones(word: u64) -> usize {
    word.count_ones() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Every query of `set` agrees with the `BTreeSet` model at `probes`.
    fn agrees(set: &PartySet, model: &BTreeSet<usize>, probes: &[usize]) {
        assert_eq!(set.len(), model.len());
        assert_eq!(set.is_empty(), model.is_empty());
        for &id in probes {
            assert_eq!(set.contains(id), model.contains(&id), "id {id}");
        }
    }

    /// The word boundaries and a far id, against the `BTreeSet<usize>` the
    /// quorum counters used before.
    #[test]
    fn matches_a_btreeset_at_the_word_boundaries() {
        let ids = [0, 63, 64, 65, 127, 128, 1000];
        let (mut set, mut model) = (PartySet::new(), BTreeSet::new());
        agrees(&set, &model, &ids);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(set.insert(id), model.insert(id), "first insert of {id}");
            assert!(!set.insert(id), "second insert of {id}");
            agrees(&set, &model, &ids);
            // Unions against a set holding every other id seen so far.
            let (mut other, mut other_model) = (PartySet::new(), BTreeSet::new());
            for &j in ids[..=i].iter().step_by(2) {
                other.insert(j);
                other_model.insert(j);
            }
            let want = model.union(&other_model).count();
            assert_eq!(set.union_len(&other), want);
            assert_eq!(other.union_len(&set), want);
        }
    }

    #[test]
    fn small_ids_stay_inline() {
        let mut set = PartySet::new();
        for id in 0..64 {
            set.insert(id);
        }
        assert_eq!(set.len(), 64);
        assert_eq!(set.high.capacity(), 0, "no heap tail below id 64");
    }

    proptest! {
        /// Random inserts over ids that straddle several words.
        #[test]
        fn behaves_like_a_btreeset(
            a in proptest::collection::vec(0usize..300, 0..40),
            b in proptest::collection::vec(0usize..300, 0..40),
        ) {
            let (mut sa, mut ma) = (PartySet::new(), BTreeSet::new());
            for &id in &a {
                prop_assert_eq!(sa.insert(id), ma.insert(id));
            }
            let (mut sb, mut mb) = (PartySet::new(), BTreeSet::new());
            for &id in &b {
                prop_assert_eq!(sb.insert(id), mb.insert(id));
            }
            let probes: Vec<usize> = (0..320).collect();
            agrees(&sa, &ma, &probes);
            agrees(&sb, &mb, &probes);
            prop_assert_eq!(sa.union_len(&sb), ma.union(&mb).count());
        }
    }
}
