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
//! A memo is bounded by the bytes its entries hold, not by how many
//! there are: each `Memo` weighs its values with the function given at
//! construction and keeps them in the same byte-budgeted FIFO table as
//! the run cache's memory tier. The `cache.memo_bytes` gauge records
//! the high-water mark of the resident bytes summed over every memo.
//!
//! Construction happens *outside* the table lock: two threads racing
//! on the same key may both build, but only the first insert wins and
//! both get the winner's `Arc` — bit-identical either way, since the
//! key pins every input.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gopim_obs::{DepMutex, DepMutexGuard};

use gopim_obs::metrics::{LazyCounter, LazyGauge};

use crate::hash::CacheKey;
use crate::store::global;
use crate::table::FifoTable;

static MEMO_HITS: LazyCounter = LazyCounter::new("cache.memo_hits");
static MEMO_MISSES: LazyCounter = LazyCounter::new("cache.memo_misses");
static MEMO_EVICTIONS: LazyCounter = LazyCounter::new("cache.memo_evictions");
static MEMO_BYTES: LazyGauge = LazyGauge::new("cache.memo_bytes");

/// Resident bytes summed over every memo in the process.
static RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);

/// Each memo's budget: room for several of the largest intermediates a
/// shipped experiment builds (products' 9.8 MB degree profile, its
/// 3.7 MB workload) and for every profile and workload of the serve
/// layer's working set (360 ddi/Cora profiles, 5.0 MB in all). The run
/// cache's memory tier has its own 256 MiB.
const MEMO_BUDGET_BYTES: usize = 64 * 1024 * 1024;

/// A byte-bounded, keyed, `Arc`-sharing memo table. Designed to live
/// in a `static`: construction is `const`.
pub struct Memo<T> {
    table: DepMutex<FifoTable<Arc<T>>>,
    weigh: fn(&T) -> usize,
}

impl<T> Memo<T> {
    /// An empty memo whose live entries weigh at most
    /// `MEMO_BUDGET_BYTES` (64 MiB) by `weigh` (FIFO eviction; the
    /// newest entry always stays; evicted values survive as long as
    /// callers hold their `Arc`s).
    pub const fn new(weigh: fn(&T) -> usize) -> Self {
        Memo {
            table: DepMutex::new("cache::table", FifoTable::new(MEMO_BUDGET_BYTES)),
            weigh,
        }
    }

    fn lock(&self) -> DepMutexGuard<'_, FifoTable<Arc<T>>> {
        // Same recovery idiom as the store: a poisoned memo is still a
        // valid map; worst case is a spurious rebuild.
        self.table.lock()
    }

    /// Returns the memoized value for the key `key` computes, building
    /// it with `build` on first use. When caching is disabled the build
    /// runs fresh, nothing is retained, and `key` is never called, so a
    /// key that hashes a large input costs nothing then.
    pub fn get_or_build(
        &self,
        key: impl FnOnce() -> CacheKey,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        if !global().is_active() {
            return Arc::new(build());
        }
        let k = key().as_u128();
        if let Some(v) = self.lock().get(k).cloned() {
            MEMO_HITS.add(1);
            return v;
        }
        MEMO_MISSES.add(1);
        let built = Arc::new(build());
        let weight = (self.weigh)(&built);
        let mut t = self.lock();
        if let Some(winner) = t.get(k).cloned() {
            // Another thread built the same key while we did; share
            // theirs so every sweep point aliases one allocation.
            return winner;
        }
        let before = t.bytes() as u64;
        let evicted = t.insert(k, Arc::clone(&built), weight);
        if evicted > 0 {
            MEMO_EVICTIONS.add(evicted);
        }
        // Added under this memo's lock, so its deltas land in order and
        // the sum never dips below zero.
        let delta = (t.bytes() as u64).wrapping_sub(before);
        let resident = RESIDENT_BYTES
            .fetch_add(delta, Ordering::Relaxed)
            .wrapping_add(delta);
        drop(t);
        MEMO_BYTES.record_max(resident);
        built
    }

    /// Number of live entries (for tests).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The summed weight of the live entries.
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        self.lock().bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::key_of;

    #[test]
    fn second_lookup_shares_the_same_allocation() {
        static MEMO: Memo<Vec<u64>> = Memo::new(|v| 8 * v.len());
        let key = key_of("memo-test", &1u64);
        let a = MEMO.get_or_build(|| key, || vec![1, 2, 3]);
        let b = MEMO.get_or_build(|| key, || panic!("must be memoized"));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn capacity_is_bounded() {
        // Entries weighing 1/8 to 5/8 of the budget force eviction.
        static MEMO: Memo<Vec<u64>> = Memo::new(|v| v.len() * (MEMO_BUDGET_BYTES / 8));
        for i in 0..32u64 {
            let _ = MEMO.get_or_build(|| key_of("memo-cap", &i), || vec![i; 1 + i as usize % 5]);
            assert!(MEMO.resident_bytes() <= MEMO_BUDGET_BYTES);
        }
        assert!(MEMO.len() < 32, "the byte bound never evicted");
    }

    #[test]
    fn the_serve_working_set_of_profiles_stays_resident() {
        // 360 ddi-sized degree profiles (4,267 vertices × 4 bytes =
        // 17,068 B each, the runner's profile weight) are serve_mix's
        // working set; a 64-entry FIFO evicted every one of them before
        // its next use. Under the production budget a second pass must
        // find each value where the first left it.
        static MEMO: Memo<Vec<u32>> = Memo::new(|v| 4 * v.len());
        let first: Vec<Arc<Vec<u32>>> = (0..360u64)
            .map(|i| MEMO.get_or_build(|| key_of("memo-working-set", &i), || vec![1; 4_267]))
            .collect();
        assert_eq!(MEMO.resident_bytes(), 360 * 17_068);
        for (i, a) in (0..360u64).zip(&first) {
            let b = MEMO.get_or_build(
                || key_of("memo-working-set", &i),
                || panic!("profile {i} was evicted"),
            );
            assert!(Arc::ptr_eq(a, &b));
        }
    }
}
