//! The byte-budgeted FIFO table under both in-process tiers: the run
//! cache's memory tier ([`crate::RunCache`]) and every [`crate::Memo`].
//!
//! Entry sizes span three orders of magnitude (a ddi degree profile is
//! 17 KB, a products one 9.8 MB), so an entry count bounds neither
//! memory nor the working set; the table is bounded by the summed
//! *weights* of its entries instead. Each owner supplies the weight
//! (the run cache an entry's byte length, a memo its weigher) and wraps
//! the table in its own `DepMutex`, so the two tiers keep distinct lock
//! classes.

use std::collections::{BTreeMap, VecDeque};

/// A keyed map bounded by the summed weights of its live entries,
/// evicting oldest-first.
pub(crate) struct FifoTable<V> {
    map: BTreeMap<u128, (V, usize)>,
    order: VecDeque<u128>,
    bytes: usize,
    budget: usize,
}

impl<V> FifoTable<V> {
    /// An empty table holding at most `budget` weight (plus the newest
    /// entry; see [`FifoTable::insert`]).
    pub(crate) const fn new(budget: usize) -> Self {
        FifoTable {
            map: BTreeMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            budget,
        }
    }

    /// The live value under `key`.
    pub(crate) fn get(&self, key: u128) -> Option<&V> {
        self.map.get(&key).map(|(value, _)| value)
    }

    /// Resident weight: the sum of the live entries' weights.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Inserts `value` weighing `weight` unless `key` is live (the
    /// first insert wins), then evicts the oldest entries while the
    /// table is over budget. The newest entry always stays, even one
    /// heavier than the whole budget. Returns how many entries it
    /// evicted.
    pub(crate) fn insert(&mut self, key: u128, value: V, weight: usize) -> u64 {
        if self.map.contains_key(&key) {
            return 0;
        }
        self.bytes = self.bytes.saturating_add(weight);
        self.map.insert(key, (value, weight));
        self.order.push_back(key);
        let mut evicted = 0;
        while self.bytes > self.budget && self.order.len() > 1 {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some((_, w)) = self.map.remove(&old) {
                self.bytes = self.bytes.saturating_sub(w);
                evicted += 1;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The invariant every test checks after each insert.
    fn assert_consistent(t: &FifoTable<u64>) {
        let live: usize = t.map.values().map(|&(_, w)| w).sum();
        assert_eq!(
            t.bytes(),
            live,
            "resident bytes drifted from the live weights"
        );
        assert_eq!(t.order.len(), t.len(), "FIFO order and map disagree");
    }

    #[test]
    fn evicts_oldest_first_until_under_budget() {
        let mut t = FifoTable::new(100);
        for k in 0..3u64 {
            assert_eq!(t.insert(u128::from(k), k, 30), 0);
            assert_consistent(&t);
        }
        // 90 resident + 50 = 140: dropping keys 0 and 1 is the shortest
        // oldest-first prefix that gets back under 100.
        assert_eq!(t.insert(3, 3, 50), 2);
        assert_consistent(&t);
        assert_eq!(t.bytes(), 80);
        let live: Vec<u128> = t.order.iter().copied().collect();
        assert_eq!(live, [2, 3]);
        assert!(t.get(1).is_none() && t.get(2) == Some(&2));
    }

    #[test]
    fn keeps_a_lone_entry_heavier_than_the_budget() {
        let mut t = FifoTable::new(10);
        assert_eq!(t.insert(1, 1, 5), 0);
        assert_eq!(t.insert(2, 2, 1_000), 1, "the older entry makes room");
        assert_consistent(&t);
        assert_eq!((t.len(), t.bytes()), (1, 1_000));
        assert_eq!(t.get(2), Some(&2));
        // The next insert evicts the oversized entry, not itself.
        assert_eq!(t.insert(3, 3, 4), 1);
        assert_consistent(&t);
        assert_eq!((t.len(), t.bytes()), (1, 4));
    }

    #[test]
    fn the_first_insert_of_a_key_wins() {
        let mut t = FifoTable::new(100);
        t.insert(7, 1, 10);
        assert_eq!(t.insert(7, 2, 90), 0);
        assert_consistent(&t);
        assert_eq!((t.get(7), t.bytes()), (Some(&1), 10));
    }

    #[test]
    fn resident_bytes_track_the_live_weights_under_churn() {
        let mut t = FifoTable::new(1 << 12);
        // Weights from 1 B to 4 KiB, keys recurring, the budget crossed
        // many times over.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let weight = (x % 4_096) as usize + 1;
            t.insert(u128::from(x % 97), x, weight);
            assert_consistent(&t);
            assert!(t.bytes() <= 1 << 12 || t.len() == 1);
        }
    }
}
