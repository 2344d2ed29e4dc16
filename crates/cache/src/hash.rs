//! Fixed-key structural hashing: the canonical request key.
//!
//! A cache key must be a pure function of the *request's semantic
//! content* — never of process layout, hasher seeding, or field
//! address. [`CanonicalHasher`] therefore starts from compile-time
//! constants (plus [`KEY_SCHEMA_VERSION`], so a schema change retires
//! every old key at once) and mixes explicitly written primitives into
//! two independent 64-bit lanes, giving a 128-bit [`CacheKey`].
//!
//! Injectivity discipline, enforced by convention in every
//! [`CanonicalHash`] impl:
//!
//! - variable-length data (strings, slices) is **length-prefixed**;
//! - enums write a **discriminant tag** before their payload;
//! - every top-level key starts with a **domain tag**
//!   (e.g. `"run_system/v1"`) so values of different kinds can never
//!   collide by field coincidence;
//! - floats are hashed as IEEE-754 bit patterns (`to_bits`), the same
//!   representation the byte codec stores.

/// Version of the key schema. Bump whenever the meaning or layout of
/// any canonical hash changes (field added, tag renumbered, semantics
/// of a config knob altered): the version is folded into the hasher's
/// initial state, so every previously stored key silently misses.
pub const KEY_SCHEMA_VERSION: u32 = 1;

/// Lane seeds and mix constants: splitmix64 / xxhash-style odd
/// constants, fixed at compile time so keys are stable across
/// processes, platforms and runs.
const LANE_A_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_B_SEED: u64 = 0xC2B2_AE3D_27D4_EB4F;
const MUL_A: u64 = 0xBF58_476D_1CE4_E5B9;
const MUL_B: u64 = 0x94D0_49BB_1331_11EB;

/// splitmix64 finalizer: a cheap full-avalanche permutation.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MUL_A);
    z = (z ^ (z >> 27)).wrapping_mul(MUL_B);
    z ^ (z >> 31)
}

/// A 128-bit canonical request key.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CacheKey(u128);

impl CacheKey {
    /// The raw 128-bit value.
    pub fn as_u128(&self) -> u128 {
        self.0
    }

    /// Little-endian byte form, as stamped into disk records.
    pub fn to_bytes(&self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Inverse of [`CacheKey::to_bytes`].
    pub fn from_bytes(b: [u8; 16]) -> Self {
        CacheKey(u128::from_le_bytes(b))
    }

    /// Lower-case hex form: the disk tier's file stem and the fixture
    /// pin format used by the property tests.
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the `to_hex` form; `None` on malformed input.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(CacheKey)
    }
}

/// The fixed-key structural hasher. Two lanes mixed with different
/// constants make accidental 64-bit collisions across a sweep grid
/// astronomically unlikely while staying allocation-free.
#[derive(Clone, Debug)]
pub struct CanonicalHasher {
    a: u64,
    b: u64,
    /// Count of primitive writes, folded into `finish` so that e.g.
    /// `["ab","c"]` and `["a","bc"]` differ even under length-prefix
    /// mistakes in a hand-written impl.
    writes: u64,
}

impl CanonicalHasher {
    /// A hasher seeded with the fixed lane keys and the key schema
    /// version.
    pub fn new() -> Self {
        let mut h = CanonicalHasher {
            a: LANE_A_SEED,
            b: LANE_B_SEED,
            writes: 0,
        };
        h.write_u32(KEY_SCHEMA_VERSION);
        h
    }

    /// Core primitive: folds one 64-bit word into both lanes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.a = mix(self.a ^ v.wrapping_mul(MUL_B));
        self.b = mix(self.b.rotate_left(23) ^ v.wrapping_mul(MUL_A));
        self.writes = self.writes.wrapping_add(1);
    }

    /// Writes a 32-bit word (widened; the width is part of the value's
    /// canonical form, so `1u32` and `1u64` hash identically on
    /// purpose — impls separate fields by position and tags).
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Writes a byte.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    /// Writes a `usize` in its platform-independent 64-bit form.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes a boolean as 0/1.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v));
    }

    /// Writes an `f64` as its IEEE-754 bit pattern. `-0.0` and `0.0`
    /// hash differently — that is deliberate: the cache contract is
    /// *bitwise* identity, so keys distinguish everything the stored
    /// bytes would.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a length-prefixed byte string.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.write_u64(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Domain-separation tag: write this first in every top-level key
    /// and before each enum payload, so differently-typed requests can
    /// never collide by field coincidence.
    pub fn write_tag(&mut self, tag: &str) {
        self.write_str(tag);
    }

    /// Finalizes into the 128-bit key.
    pub fn finish(&self) -> CacheKey {
        let a = mix(self.a ^ self.writes);
        let b = mix(self.b ^ self.writes.rotate_left(32));
        CacheKey((u128::from(a) << 64) | u128::from(b))
    }
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        CanonicalHasher::new()
    }
}

/// Structural hashing for cacheable request types.
///
/// Deliberately derive-free: every impl lists its fields explicitly,
/// which is the reviewable record of what the cache key covers (and
/// what it does not — anything omitted here must be a pure function
/// of what is included, or the type must not be cached).
pub trait CanonicalHash {
    /// Folds `self`'s semantic content into `h`.
    fn canonical_hash(&self, h: &mut CanonicalHasher);
}

/// Hashes `value` under a fresh hasher with a leading domain `tag`.
pub fn key_of<T: CanonicalHash + ?Sized>(tag: &str, value: &T) -> CacheKey {
    let mut h = CanonicalHasher::new();
    h.write_tag(tag);
    value.canonical_hash(&mut h);
    h.finish()
}

impl CanonicalHash for u8 {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_u8(*self);
    }
}

impl CanonicalHash for u32 {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_u32(*self);
    }
}

impl CanonicalHash for u64 {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_u64(*self);
    }
}

impl CanonicalHash for u128 {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_u64((*self >> 64) as u64);
        h.write_u64(*self as u64);
    }
}

impl CanonicalHash for CacheKey {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        self.0.canonical_hash(h);
    }
}

impl CanonicalHash for usize {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_usize(*self);
    }
}

impl CanonicalHash for bool {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_bool(*self);
    }
}

impl CanonicalHash for f64 {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_f64(*self);
    }
}

impl CanonicalHash for str {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_str(self);
    }
}

impl CanonicalHash for String {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_str(self);
    }
}

impl<T: CanonicalHash + ?Sized> CanonicalHash for &T {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        (*self).canonical_hash(h);
    }
}

impl<T: CanonicalHash> CanonicalHash for Option<T> {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.canonical_hash(h);
            }
        }
    }
}

impl<T: CanonicalHash> CanonicalHash for [T] {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        h.write_u64(self.len() as u64);
        for v in self {
            v.canonical_hash(h);
        }
    }
}

impl<T: CanonicalHash> CanonicalHash for Vec<T> {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        self.as_slice().canonical_hash(h);
    }
}

impl<A: CanonicalHash, B: CanonicalHash> CanonicalHash for (A, B) {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        self.0.canonical_hash(h);
        self.1.canonical_hash(h);
    }
}

impl<A: CanonicalHash, B: CanonicalHash, C: CanonicalHash> CanonicalHash for (A, B, C) {
    fn canonical_hash(&self, h: &mut CanonicalHasher) {
        self.0.canonical_hash(h);
        self.1.canonical_hash(h);
        self.2.canonical_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_and_sensitive() {
        let k1 = key_of("t", &(1u64, 2u64));
        let k2 = key_of("t", &(1u64, 2u64));
        assert_eq!(k1, k2);
        assert_ne!(k1, key_of("t", &(2u64, 1u64)));
        assert_ne!(k1, key_of("u", &(1u64, 2u64)));
    }

    #[test]
    fn length_prefix_separates_concatenations() {
        let a = key_of("t", &vec!["ab".to_string(), "c".to_string()]);
        let b = key_of("t", &vec!["a".to_string(), "bc".to_string()]);
        assert_ne!(a, b);
    }

    #[test]
    fn float_bits_matter() {
        assert_ne!(key_of("t", &0.0f64), key_of("t", &-0.0f64));
        assert_ne!(key_of("t", &1.0f64), key_of("t", &1.0000000000000002f64));
    }

    #[test]
    fn hex_round_trips() {
        let k = key_of("t", &42u64);
        assert_eq!(CacheKey::from_hex(&k.to_hex()), Some(k));
        assert_eq!(CacheKey::from_bytes(k.to_bytes()), k);
        assert!(CacheKey::from_hex("xyz").is_none());
    }
}
