//! Integer-key hashing for the simulator's own ids.
//!
//! The call path consults a few hash tables on every call: the per-CPU
//! [`crate::tlb::Tlb`]'s resident set, each [`crate::vm::VmContext`]'s
//! region map, the E-stack associations and the kernel's handle shards.
//! Their keys are ids the simulator itself hands out (contexts, regions,
//! pages, A-stacks, handles), never input from outside the program, so the
//! std default's protection against crafted collisions (SipHash with a
//! random key) buys nothing and costs most of the lookup. [`IdHasher`]
//! instead folds each 64-bit word into its state with a 64×64→128-bit
//! multiply, XOR-ing the high half back into the low one. That spreads
//! high key bits into the low bits the table picks buckets from — a
//! [`crate::mem::PageId`] is `region << 20 | page`, and handle ids in one
//! shard share their low four bits. A table's contents and lookups do not
//! depend on the hasher; only its iteration order does.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (2^64 / φ, odd).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hasher for keys made of simulator-generated integer ids.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by simulator ids.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of simulator ids.
pub type IdHashSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;
    use crate::mem::{PageId, RegionId, PAGE_SIZE};
    use crate::vm::ContextId;

    fn hash<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn high_key_bits_reach_the_low_hash_bits() {
        // Page 0 of 256 regions differs only above bit 20; the low byte of
        // the hash, which picks buckets in a small table, must still vary.
        let low: HashSet<u64> = (0..256u64)
            .map(|r| hash((ContextId(3), PageId::of(RegionId(r), 0))) & 0xff)
            .collect();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn tuple_fields_are_ordered() {
        let page = PageId::of(RegionId(1), PAGE_SIZE);
        assert_ne!(hash((ContextId(1), page)), hash((ContextId(2), page)));
        assert_ne!(hash((1u64, 2u64)), hash((2u64, 1u64)));
    }
}
