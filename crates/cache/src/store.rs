//! The two-tier content-addressed run cache.
//!
//! Tier 1 is an in-process map (`BTreeMap`, bounded bytes, FIFO
//! eviction) that serves intra-sweep hits: several figures request the
//! same `(dataset, system, config)` tuple within one process, and a
//! multi-experiment binary run reuses everything downstream of a shared
//! key. Tier 2 is opt-in and on disk (`GOPIM_CACHE=dir`): one
//! length-prefixed record per key, stamped with a format version and
//! the key schema version, checksummed, written temp-then-rename.
//! *Any* mismatch — magic, version, schema, key, length, checksum,
//! truncation — is a silent miss, never an error: a corrupt cache can
//! cost time, but can never change a result.
//!
//! Failure philosophy: the cache is a pure performance layer, so every
//! I/O error degrades to "compute it fresh". Nothing in this module
//! panics, prints, or reads a clock.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use gopim_obs::{DepMutex, DepMutexGuard};

use gopim_obs::metrics::LazyCounter;

use crate::codec::CacheValue;
use crate::hash::{CacheKey, KEY_SCHEMA_VERSION};

static HITS: LazyCounter = LazyCounter::new("cache.hits");
static MISSES: LazyCounter = LazyCounter::new("cache.misses");
static DISK_HITS: LazyCounter = LazyCounter::new("cache.disk_hits");
static DISK_MISSES: LazyCounter = LazyCounter::new("cache.disk_misses");
static BYTES_READ: LazyCounter = LazyCounter::new("cache.bytes_read");
static BYTES_WRITTEN: LazyCounter = LazyCounter::new("cache.bytes_written");
static EVICTIONS: LazyCounter = LazyCounter::new("cache.evictions");
static CORRUPT: LazyCounter = LazyCounter::new("cache.corrupt_records");

/// On-disk record layout (all integers little-endian):
///
/// ```text
/// magic            4 bytes   b"GPC1"
/// format version   u32       RECORD_FORMAT_VERSION
/// key schema       u32       hash::KEY_SCHEMA_VERSION
/// key              16 bytes  CacheKey::to_bytes
/// payload length   u64
/// payload          <length> bytes (codec output)
/// checksum         u64       FNV-1a over the payload
/// ```
const MAGIC: [u8; 4] = *b"GPC1";
const RECORD_FORMAT_VERSION: u32 = 1;
const HEADER_LEN: usize = 4 + 4 + 4 + 16 + 8;

/// The process cache's in-memory tier budget.
const DEFAULT_MEM_BYTES: usize = 256 * 1024 * 1024;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Always-on internal statistics (plain atomics, independent of the
/// `GOPIM_METRICS` gate) so tests can assert cache behavior directly.
#[derive(Default)]
struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
}

/// A point-in-time copy of the cache's internal statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Lookups served from either tier.
    pub hits: u64,
    /// Lookups that fell through to fresh computation.
    pub misses: u64,
    /// Subset of `hits` served by the disk tier.
    pub disk_hits: u64,
    /// In-memory entries dropped to respect the byte budget.
    pub evictions: u64,
    /// Records rejected for failing any validity check.
    pub corrupt: u64,
}

struct MemTier {
    map: BTreeMap<u128, Arc<Vec<u8>>>,
    order: VecDeque<u128>,
    bytes: usize,
}

/// The two-tier content-addressed store.
pub struct RunCache {
    mem: DepMutex<MemTier>,
    disk: Option<PathBuf>,
    cap_bytes: usize,
    enabled: bool,
    stats: Stats,
}

impl RunCache {
    /// A cache with an explicit configuration (tests use this; the
    /// runner uses [`global`]).
    pub fn new(disk: Option<PathBuf>, cap_bytes: usize) -> Self {
        RunCache {
            mem: DepMutex::new(
                "cache::mem",
                MemTier {
                    map: BTreeMap::new(),
                    order: VecDeque::new(),
                    bytes: 0,
                },
            ),
            disk,
            cap_bytes,
            enabled: true,
            stats: Stats::default(),
        }
    }

    /// Whether lookups and stores are active (`GOPIM_NO_CACHE` unset).
    pub fn is_active(&self) -> bool {
        self.enabled
    }

    /// A copy of the internal statistics.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            disk_hits: self.stats.disk_hits.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
        }
    }

    fn lock_mem(&self) -> DepMutexGuard<'_, MemTier> {
        // DepMutex recovers from poisoning: a poisoned lock only means
        // another thread panicked mid-insert; the map itself is still
        // structurally sound, and the worst outcome of a torn insert
        // is a spurious miss.
        self.mem.lock()
    }

    /// Raw lookup across both tiers; promotes disk hits into memory.
    pub fn lookup(&self, key: CacheKey) -> Option<Arc<Vec<u8>>> {
        if !self.is_active() {
            return None;
        }
        if let Some(bytes) = self.lock_mem().map.get(&key.as_u128()).cloned() {
            return Some(bytes);
        }
        let dir = self.disk.as_ref()?;
        match self.read_record(dir, key) {
            Some(bytes) => {
                self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
                DISK_HITS.add(1);
                BYTES_READ.add(bytes.len() as u64);
                let bytes = Arc::new(bytes);
                self.insert_mem(key, Arc::clone(&bytes));
                Some(bytes)
            }
            None => {
                DISK_MISSES.add(1);
                None
            }
        }
    }

    /// Byte-level lookup with hit/miss accounting. The serve layer's
    /// entry point: a job server relays results as opaque codec bytes
    /// and never decodes them, so the typed
    /// [`RunCache::get_or_compute`] path does not apply, but the
    /// hit/miss statistics should still tell the truth.
    pub fn get_bytes(&self, key: CacheKey) -> Option<Arc<Vec<u8>>> {
        if !self.is_active() {
            return None;
        }
        match self.lookup(key) {
            Some(bytes) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                HITS.add(1);
                Some(bytes)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                MISSES.add(1);
                None
            }
        }
    }

    /// Raw store into both tiers.
    pub fn store(&self, key: CacheKey, bytes: Arc<Vec<u8>>) {
        if !self.is_active() {
            return;
        }
        BYTES_WRITTEN.add(bytes.len() as u64);
        if let Some(dir) = self.disk.as_ref() {
            self.write_record(dir, key, &bytes);
        }
        self.insert_mem(key, bytes);
    }

    /// The main entry point: decode a hit, or compute + encode + store
    /// on a miss. The returned value is bitwise identical either way —
    /// both arms pass through the same codec bytes.
    pub fn get_or_compute<T: CacheValue>(&self, key: CacheKey, compute: impl FnOnce() -> T) -> T {
        if !self.is_active() {
            return compute();
        }
        if let Some(bytes) = self.lookup(key) {
            if let Some(v) = T::from_bytes(&bytes) {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                HITS.add(1);
                return v;
            }
            // The bytes exist but decode as the wrong shape: treat as
            // corruption (e.g. a key collision across value types,
            // which the domain tags make astronomically unlikely).
            self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
            CORRUPT.add(1);
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        MISSES.add(1);
        let v = compute();
        self.store(key, Arc::new(v.to_bytes()));
        v
    }

    fn insert_mem(&self, key: CacheKey, bytes: Arc<Vec<u8>>) {
        let mut mem = self.lock_mem();
        let k = key.as_u128();
        if mem.map.contains_key(&k) {
            return;
        }
        mem.bytes = mem.bytes.saturating_add(bytes.len());
        mem.map.insert(k, bytes);
        mem.order.push_back(k);
        let mut evicted = 0u64;
        while mem.bytes > self.cap_bytes && mem.order.len() > 1 {
            if let Some(old) = mem.order.pop_front() {
                if let Some(b) = mem.map.remove(&old) {
                    mem.bytes = mem.bytes.saturating_sub(b.len());
                    evicted += 1;
                }
            }
        }
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
            EVICTIONS.add(evicted);
        }
    }

    fn record_path(dir: &Path, key: CacheKey) -> PathBuf {
        dir.join(format!("{}.gpc", key.to_hex()))
    }

    fn read_record(&self, dir: &Path, key: CacheKey) -> Option<Vec<u8>> {
        let raw = std::fs::read(Self::record_path(dir, key)).ok()?;
        let parsed = parse_record(&raw, key);
        if parsed.is_none() {
            self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
            CORRUPT.add(1);
        }
        parsed
    }

    fn write_record(&self, dir: &Path, key: CacheKey, payload: &[u8]) {
        // Every step degrades silently: a read-only or vanished cache
        // directory must never fail a run.
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let mut record = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
        record.extend_from_slice(&MAGIC);
        record.extend_from_slice(&RECORD_FORMAT_VERSION.to_le_bytes());
        record.extend_from_slice(&KEY_SCHEMA_VERSION.to_le_bytes());
        record.extend_from_slice(&key.to_bytes());
        record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        record.extend_from_slice(payload);
        record.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        // Temp-then-rename keeps concurrent writers (several bench
        // bins sharing one GOPIM_CACHE dir) from ever exposing a torn
        // record; the per-process suffix keeps their temp files apart.
        let tmp = dir.join(format!(".{}.tmp{}", key.to_hex(), std::process::id()));
        if std::fs::write(&tmp, &record).is_err() {
            return;
        }
        if std::fs::rename(&tmp, Self::record_path(dir, key)).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Validates and unwraps one disk record; `None` on any mismatch.
fn parse_record(raw: &[u8], key: CacheKey) -> Option<Vec<u8>> {
    if raw.len() < HEADER_LEN + 8 || raw[..4] != MAGIC {
        return None;
    }
    let word32 = |at: usize| {
        let mut w = [0u8; 4];
        w.copy_from_slice(&raw[at..at + 4]);
        u32::from_le_bytes(w)
    };
    if word32(4) != RECORD_FORMAT_VERSION || word32(8) != KEY_SCHEMA_VERSION {
        return None;
    }
    let mut kb = [0u8; 16];
    kb.copy_from_slice(&raw[12..28]);
    if CacheKey::from_bytes(kb) != key {
        return None;
    }
    let mut lb = [0u8; 8];
    lb.copy_from_slice(&raw[28..36]);
    let len = usize::try_from(u64::from_le_bytes(lb)).ok()?;
    if raw.len() != HEADER_LEN + len + 8 {
        return None;
    }
    let payload = &raw[HEADER_LEN..HEADER_LEN + len];
    let mut cb = [0u8; 8];
    cb.copy_from_slice(&raw[HEADER_LEN + len..]);
    if fnv1a64(payload) != u64::from_le_bytes(cb) {
        return None;
    }
    Some(payload.to_vec())
}

/// The process-wide cache, built on first use: `GOPIM_CACHE=dir`
/// enables the disk tier, `GOPIM_NO_CACHE=1` disables everything.
pub fn global() -> &'static RunCache {
    static GLOBAL: OnceLock<RunCache> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        // Contribute end-of-run cache statistics to the run manifest
        // (no-op unless GOPIM_MANIFEST is set). The provider is polled
        // at render time, so the counts cover the whole run.
        gopim_obs::manifest::register_provider(|| {
            use gopim_obs::manifest::Value;
            let s = global().stats();
            vec![
                ("cache.hits".to_string(), Value::U64(s.hits)),
                ("cache.misses".to_string(), Value::U64(s.misses)),
                ("cache.disk_hits".to_string(), Value::U64(s.disk_hits)),
                ("cache.evictions".to_string(), Value::U64(s.evictions)),
                ("cache.corrupt".to_string(), Value::U64(s.corrupt)),
            ]
        });
        let env = gopim_obs::env::get();
        let mut cache = RunCache::new(env.cache.as_ref().map(PathBuf::from), DEFAULT_MEM_BYTES);
        cache.enabled = !env.no_cache;
        cache
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::key_of;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gopim-cache-test-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn memory_tier_round_trips() {
        let cache = RunCache::new(None, 1 << 20);
        let key = key_of("test", &1u64);
        let a: Vec<f64> = cache.get_or_compute(key, || vec![1.0, 2.0, 3.0]);
        let b: Vec<f64> = cache.get_or_compute(key, || panic!("must hit"));
        assert_eq!(a, b);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn disk_tier_round_trips_and_survives_fresh_memory() {
        let dir = temp_dir("disk");
        let key = key_of("test", &2u64);
        let writer = RunCache::new(Some(dir.clone()), 1 << 20);
        let v: Vec<f64> = writer.get_or_compute(key, || vec![0.5, -0.0]);
        let reader = RunCache::new(Some(dir.clone()), 1 << 20);
        let w: Vec<f64> = reader.get_or_compute(key, || panic!("must hit via disk"));
        assert_eq!(v.len(), w.len());
        assert!(v.iter().zip(&w).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(reader.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_are_misses() {
        let dir = temp_dir("corrupt");
        let key = key_of("test", &3u64);
        let writer = RunCache::new(Some(dir.clone()), 1 << 20);
        let _: u64 = writer.get_or_compute(key, || 99);
        // Flip one payload byte on disk.
        let path = RunCache::record_path(&dir, key);
        let mut raw = std::fs::read(&path).unwrap();
        let at = raw.len() - 9;
        raw[at] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        let reader = RunCache::new(Some(dir.clone()), 1 << 20);
        let v: u64 = reader.get_or_compute(key, || 7);
        assert_eq!(v, 7);
        assert_eq!(reader.stats().corrupt, 1);
        // Truncated record likewise.
        std::fs::write(&path, &raw[..10]).unwrap();
        let reader2 = RunCache::new(Some(dir), 1 << 20);
        let v2: u64 = reader2.get_or_compute(key, || 8);
        assert_eq!(v2, 8);
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let cache = RunCache::new(None, 64);
        for i in 0..16u64 {
            let key = key_of("evict", &i);
            let _: Vec<u64> = cache.get_or_compute(key, || vec![i; 4]);
        }
        assert!(cache.stats().evictions > 0);
        assert!(cache.lock_mem().bytes <= 64 + 40);
    }

    #[test]
    fn a_disabled_cache_bypasses_both_tiers_and_counts_nothing() {
        let dir = temp_dir("disabled");
        let (key, other) = (key_of("test", &4u64), key_of("test", &5u64));
        let _: u64 = RunCache::new(Some(dir.clone()), 1 << 20).get_or_compute(key, || 1);
        // A record now sits on disk; a disabled cache over the same
        // directory must neither read it nor write or retain anything.
        let mut cache = RunCache::new(Some(dir.clone()), 1 << 20);
        cache.enabled = false;
        assert_eq!(cache.get_or_compute(key, || 2u64), 2);
        assert_eq!(cache.get_or_compute(key, || 3u64), 3);
        assert!(cache.get_bytes(key).is_none());
        cache.store(other, Arc::new(vec![1, 2, 3]));
        assert!(!RunCache::record_path(&dir, other).exists());
        assert!(cache.lock_mem().map.is_empty());
        let s = cache.stats();
        let counts = [s.hits, s.misses, s.disk_hits, s.evictions, s.corrupt];
        assert_eq!(counts, [0; 5], "a disabled cache counted traffic");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
