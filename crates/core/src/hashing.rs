//! Resource-name hashing for lock tables.
//!
//! §3.3.1: "software locks ... map via software-hashing to a given CF lock
//! table entry. Through use of efficient hashing algorithms and granular
//! serialization scope, false lock resource contention is kept to a
//! minimum." Experiment E10 sweeps table sizes against this claim, so the
//! hash here must be cheap and well-distributed.
//!
//! **The one-hash rule.** A resource name is hashed once — one FNV-1a pass,
//! carried with the name in a [`ResourceName`] — and everything else is
//! derived from that value: the lock-table entry and the record-data shard
//! ([`slot_of`]), and the bucket of every private table keyed by the name
//! ([`PrehashedMap`]). Nothing on a lock request runs a second, keyed hash.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// FNV-1a 64-bit hash — small-state, allocation-free, good diffusion for the
/// short structured resource names lock managers produce.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Finalising mix (from splitmix64) applied before reduction so that low-
/// entropy FNV outputs still spread across small tables.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Reduce an already computed [`fnv1a64`] name hash to a slot in
/// `0..table_len`.
#[inline]
pub fn slot_of(hash: u64, table_len: usize) -> usize {
    debug_assert!(table_len > 0);
    // Multiply-shift reduction avoids the modulo bias of `% table_len`
    // for non-power-of-two tables and is faster than `%`.
    ((mix64(hash) as u128 * table_len as u128) >> 64) as usize
}

/// Hash a resource name into a lock-table slot in `0..table_len`.
#[inline]
pub fn hash_to_slot(name: &[u8], table_len: usize) -> usize {
    slot_of(fnv1a64(name), table_len)
}

/// Longest byte string [`InlineBytes`] holds without the allocator. The
/// database's lock names fit: `ROW.` names are 20 bytes, `PAGE.` names 30.
pub const INLINE_BYTES: usize = 32;

/// A short byte string stored in place: up to [`INLINE_BYTES`] bytes live in
/// the value itself, longer ones on the heap.
#[derive(Clone)]
pub struct InlineBytes(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_BYTES] },
    Heap(Box<[u8]>),
}

impl InlineBytes {
    /// Copy `bytes`.
    #[inline]
    pub fn new(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE_BYTES {
            let mut buf = [0u8; INLINE_BYTES];
            buf[..bytes.len()].copy_from_slice(bytes);
            InlineBytes(Repr::Inline { len: bytes.len() as u8, buf })
        } else {
            InlineBytes(Repr::Heap(bytes.into()))
        }
    }

    /// The stored bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }
}

impl std::fmt::Debug for InlineBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", String::from_utf8_lossy(self.as_bytes()))
    }
}

/// A resource name carried with its one hash (see the module doc). Equality
/// and order are those of the name bytes, so sorting names sorts exactly as
/// sorting the byte strings would.
#[derive(Clone, Debug)]
pub struct ResourceName {
    hash: u64,
    bytes: InlineBytes,
}

impl ResourceName {
    /// Copy `name` and hash it — the only hash pass a request makes.
    #[inline]
    pub fn new(name: &[u8]) -> Self {
        ResourceName { hash: fnv1a64(name), bytes: InlineBytes::new(name) }
    }

    /// The name's [`fnv1a64`] hash.
    #[inline]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The name bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_bytes()
    }
}

impl PartialEq for ResourceName {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ResourceName {}

impl PartialOrd for ResourceName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ResourceName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for ResourceName {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Non-keyed [`BuildHasher`] for tables private to this program whose keys
/// are already hashed ([`ResourceName`]) or are small integers it assigned
/// itself (entry indexes, transaction ids): the key's one `u64` is spread by
/// a single odd multiply, so both the low bits (bucket) and the top bits
/// (the table's 7-bit tags) differ between neighbouring keys. No SipHash, no
/// per-process seed. Keys that arrive from outside the program keep the
/// default hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct Prehashed;

/// The [`Hasher`] of [`Prehashed`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0 = v as u64;
    }

    /// Fallback for a key type that feeds bytes: hash them here.
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a64(bytes);
    }
}

impl BuildHasher for Prehashed {
    type Hasher = PrehashedHasher;

    #[inline]
    fn build_hasher(&self) -> PrehashedHasher {
        PrehashedHasher(0)
    }
}

/// A `HashMap` whose keys carry their own hash (see [`Prehashed`]).
pub type PrehashedMap<K, V> = HashMap<K, V, Prehashed>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn slot_in_range() {
        for len in [1usize, 2, 3, 100, 1024, 1 << 20] {
            for i in 0..200u32 {
                let name = format!("RES{i}");
                assert!(hash_to_slot(name.as_bytes(), len) < len);
            }
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        // 10k sequential names into 64 slots: every slot should see traffic
        // and no slot should be grossly overloaded.
        let slots = 64;
        let mut counts = vec![0usize; slots];
        for i in 0..10_000 {
            let name = format!("DB2.TS{:06}.PAGE{:08}", i % 40, i);
            counts[hash_to_slot(name.as_bytes(), slots)] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min > 0, "empty slot");
        assert!(max < 10_000 / slots * 3, "slot overloaded: {max}");
    }

    #[test]
    fn resource_name_inline_and_heap_agree_with_the_bytes() {
        let short = ResourceName::new(b"ROW.000000000000002a");
        let long_bytes = vec![b'x'; 200];
        let long = ResourceName::new(&long_bytes);
        assert_eq!(short.as_bytes(), b"ROW.000000000000002a");
        assert_eq!(long.as_bytes(), &long_bytes[..]);
        assert_eq!(short.hash(), fnv1a64(b"ROW.000000000000002a"));
        assert_eq!(slot_of(short.hash(), 1024), hash_to_slot(short.as_bytes(), 1024));
        assert_eq!(long.clone(), long);
        assert_ne!(short, long);
        // Exactly at the inline limit, and one past it.
        for len in [INLINE_BYTES, INLINE_BYTES + 1] {
            let bytes = vec![b'k'; len];
            assert_eq!(ResourceName::new(&bytes).as_bytes(), &bytes[..]);
        }
        // Order is byte order, whatever the hashes are.
        let mut names = [ResourceName::new(b"ROW.2"), ResourceName::new(b"PAGE.9"), long.clone()];
        names.sort();
        let sorted: Vec<&[u8]> = names.iter().map(|n| n.as_bytes()).collect();
        assert_eq!(sorted, vec![&b"PAGE.9"[..], &b"ROW.2"[..], &long_bytes[..]]);
    }

    #[test]
    fn prehashed_map_finds_names_and_small_integers() {
        let mut names: PrehashedMap<ResourceName, usize> = PrehashedMap::default();
        let mut ints: PrehashedMap<usize, usize> = PrehashedMap::default();
        for i in 0..1000usize {
            names.insert(ResourceName::new(format!("ROW.{i:016x}").as_bytes()), i);
            ints.insert(i, i);
        }
        for i in 0..1000usize {
            assert_eq!(names.get(&ResourceName::new(format!("ROW.{i:016x}").as_bytes())), Some(&i));
            assert_eq!(ints.get(&i), Some(&i));
        }
        // Neighbouring integers must not share the table's top-bit tag.
        let tag = |v: usize| Prehashed.hash_one(v) >> 57;
        assert!((0..64usize).map(tag).collect::<std::collections::HashSet<_>>().len() > 16);
    }

    #[test]
    fn mix_changes_low_bits() {
        // Sequential inputs must not collide in low bits after mixing.
        let a = mix64(1) & 0xFFFF;
        let b = mix64(2) & 0xFFFF;
        assert_ne!(a, b);
    }
}
