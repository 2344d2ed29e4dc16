//! In-process `Arc`-sharing memo tables for expensive intermediates.
//!
//! The run cache stores *results* as bytes; [`Memo`] instead shares
//! *live structures* — degree profiles, built workloads, allocation
//! inputs — across sweep points that differ only downstream. Entries
//! are handed out as `Arc<T>`, so five systems simulating the same
//! dataset hold one copy of the workload (copy-on-write in spirit: the
//! shared value is immutable; anything that must differ is rebuilt).
//!
//! A `Memo` is a static table keyed by [`CacheKey`]: the key must
//! canonically cover every input of the memoized constructor, exactly
//! like a run-cache key. Lookups honor the store's kill switch
//! (`GOPIM_NO_CACHE=1`), so a process run with it observes real
//! rebuilds.
//!
//! Construction happens *outside* the table lock: two threads racing
//! on the same key may both build, but only the first insert wins and
//! both get the winner's `Arc` — bit-identical either way, since the
//! key pins every input.

use std::collections::BTreeMap;
use std::sync::Arc;

use gopim_obs::{DepMutex, DepMutexGuard};

use gopim_obs::metrics::LazyCounter;

use crate::hash::CacheKey;
use crate::store::global;

static MEMO_HITS: LazyCounter = LazyCounter::new("cache.memo_hits");
static MEMO_MISSES: LazyCounter = LazyCounter::new("cache.memo_misses");
static MEMO_EVICTIONS: LazyCounter = LazyCounter::new("cache.memo_evictions");

struct Table<T> {
    map: BTreeMap<u128, Arc<T>>,
    order: Vec<u128>,
}

/// A bounded, keyed, `Arc`-sharing memo table. Designed to live in a
/// `static`: construction is `const`.
pub struct Memo<T> {
    table: DepMutex<Table<T>>,
    cap_entries: usize,
}

impl<T> Memo<T> {
    /// An empty memo bounded to `cap_entries` live entries (FIFO
    /// eviction; evicted values survive as long as callers hold their
    /// `Arc`s).
    pub const fn new(cap_entries: usize) -> Self {
        Memo {
            table: DepMutex::new(
                "cache::table",
                Table {
                    map: BTreeMap::new(),
                    order: Vec::new(),
                },
            ),
            cap_entries,
        }
    }

    fn lock(&self) -> DepMutexGuard<'_, Table<T>> {
        // Same recovery idiom as the store: a poisoned memo is still a
        // valid map; worst case is a spurious rebuild.
        self.table.lock()
    }

    /// Returns the memoized value for `key`, building it with `build`
    /// on first use. When caching is disabled the build runs fresh and
    /// nothing is retained.
    pub fn get_or_build(&self, key: CacheKey, build: impl FnOnce() -> T) -> Arc<T> {
        if !global().is_active() {
            return Arc::new(build());
        }
        if let Some(v) = self.lock().map.get(&key.as_u128()).cloned() {
            MEMO_HITS.add(1);
            return v;
        }
        MEMO_MISSES.add(1);
        let built = Arc::new(build());
        let mut t = self.lock();
        let k = key.as_u128();
        if let Some(winner) = t.map.get(&k).cloned() {
            // Another thread built the same key while we did; share
            // theirs so every sweep point aliases one allocation.
            return winner;
        }
        t.map.insert(k, Arc::clone(&built));
        t.order.push(k);
        if t.order.len() > self.cap_entries {
            let old = t.order.remove(0);
            t.map.remove(&old);
            MEMO_EVICTIONS.add(1);
        }
        built
    }

    /// Number of live entries (for tests).
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::key_of;

    #[test]
    fn second_lookup_shares_the_same_allocation() {
        static MEMO: Memo<Vec<u64>> = Memo::new(8);
        let key = key_of("memo-test", &1u64);
        let a = MEMO.get_or_build(key, || vec![1, 2, 3]);
        let b = MEMO.get_or_build(key, || panic!("must be memoized"));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn capacity_is_bounded() {
        static MEMO: Memo<u64> = Memo::new(4);
        for i in 0..32u64 {
            let _ = MEMO.get_or_build(key_of("memo-cap", &i), || i);
        }
        assert!(MEMO.len() <= 4);
    }
}
