//! A fast keyed hasher for maps keyed by identifiers.
//!
//! std's `HashMap` hashes with SipHash-1-3, which costs tens of
//! nanoseconds for a 128-bit [`Auid`](crate::Auid). The simulator's
//! heartbeat path looks hosts up by `Auid` several times per event, so at
//! 100k hosts SipHash is a visible share of every simulated second.
//! [`IdHasher`] is a fold-multiply hasher — the core of foldhash and ahash:
//! each integer written is combined with the running state and multiplied by
//! a 64-bit key as a full 128-bit product, whose two halves are XORed
//! together ("folded"), so every input bit reaches both the low bits a table
//! indexes by and the high bits it tags entries with. A `u128` is written
//! in one step that mixes **both** halves: the simulator mints every host's
//! `Auid` at t = 1 ns, so host ids share their top 64 bits and differ only
//! in the sequence and random bits below.
//!
//! **Why keyed.** The hasher's state and key are drawn once per process
//! from std's `RandomState` (as foldhash and ahash seed themselves). Threaded
//! services key these maps by ids that hosts send them, and an unkeyed hash
//! would let a host choose ids that all land in one bucket chain, turning
//! each lookup into a scan. The seeding also keeps iteration order random
//! per process, as it is under std's hasher, so no caller can come to
//! depend on one order.
//!
//! Use [`IdMap`] (and [`IdSet`]) for maps keyed by `Auid`s or tuples of them. Other keys
//! hash correctly but are read eight bytes at a time with no claim to
//! speed or quality; keep std's default hasher for those.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdHashState>;

/// A `HashSet` hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, IdHashState>;

/// Multiply the 64-bit halves as one 128-bit product and XOR its halves.
#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The process's (initial state, key) pair, drawn on first use.
fn process_seeds() -> (u64, u64) {
    static SEEDS: OnceLock<(u64, u64)> = OnceLock::new();
    *SEEDS.get_or_init(|| {
        let random = RandomState::new();
        (random.hash_one(0u64), random.hash_one(1u64))
    })
}

/// Builds [`IdHasher`]s from the per-process seeds; the `S` of [`IdMap`].
#[derive(Debug, Clone, Copy)]
pub struct IdHashState {
    state: u64,
    key: u64,
}

impl Default for IdHashState {
    fn default() -> IdHashState {
        let (state, key) = process_seeds();
        IdHashState { state, key }
    }
}

impl BuildHasher for IdHashState {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            acc: self.state,
            key: self.key,
        }
    }
}

/// The fold-multiply hasher (see the module docs).
#[derive(Debug, Clone)]
pub struct IdHasher {
    acc: u64,
    key: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.acc = fold_mul(self.acc ^ n, self.key);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.acc = fold_mul(self.acc ^ n as u64, self.key ^ (n >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Auid;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, HashSet};

    /// 100k host ids minted the way the simulator's `add_node` mints them:
    /// all at t = 1 ns, so their top 64 bits are identical.
    fn host_ids() -> Vec<Auid> {
        let mut rng = SmallRng::seed_from_u64(1);
        let ids: Vec<Auid> = (0..100_000).map(|_| Auid::generate(1, &mut rng)).collect();
        assert!(ids.iter().all(|a| a.timestamp_nanos() == 1));
        ids
    }

    fn max_load(hashes: impl Iterator<Item = u64>, bucket: impl Fn(u64) -> usize) -> usize {
        let mut load = vec![0usize; 1 << 16];
        for h in hashes {
            load[bucket(h)] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn ids_sharing_their_top_half_hash_apart() {
        let ids = host_ids();
        let state = IdHashState::default();
        let hashes: Vec<u64> = ids.iter().map(|a| state.hash_one(a)).collect();
        let distinct: HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "64-bit collisions");

        // Bucket loads over 2^16 buckets, by the low bits (a table's index)
        // and by the high bits, against a uniform draw of as many values.
        let low = |h: u64| h as usize & 0xffff;
        let high = |h: u64| (h >> 48) as usize;
        let mut rng = SmallRng::seed_from_u64(2);
        let uniform = max_load((0..ids.len()).map(|_| rng.gen::<u64>()), low);
        for (name, load) in [
            ("low", max_load(hashes.iter().copied(), low)),
            ("high", max_load(hashes.iter().copied(), high)),
        ] {
            assert!(
                load <= 4 * uniform,
                "{name} bits: max load {load}, uniform draw {uniform}"
            );
        }
    }

    #[test]
    fn one_process_one_seed() {
        let id = Auid(0x1234_5678_9abc_def0_0fed_cba9_8765_4321);
        assert_eq!(
            IdHashState::default().hash_one(id),
            IdHashState::default().hash_one(id)
        );
        // Tuples and byte strings hash through the same state.
        let pair = (id, Auid(7));
        assert_eq!(
            IdHashState::default().hash_one(pair),
            IdHashState::default().hash_one(pair)
        );
        assert_ne!(
            IdHashState::default().hash_one("ab"),
            IdHashState::default().hash_one("ab\0")
        );
    }

    proptest::proptest! {
        #[test]
        fn id_map_round_trips_against_a_btree_model(
            ops in proptest::collection::vec((0..3u8, 0..64u64, proptest::prelude::any::<u32>()), 1..400),
        ) {
            // Keys share their top half, like simulated host ids.
            let key = |k: u64| Auid((1u128 << 64) | u128::from(k.wrapping_mul(0x9e37_79b9)));
            let mut map: IdMap<Auid, u32> = IdMap::default();
            let mut model: BTreeMap<Auid, u32> = BTreeMap::new();
            for &(op, k, v) in &ops {
                let k = key(k);
                match op {
                    0 => proptest::prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                    1 => proptest::prop_assert_eq!(map.remove(&k), model.remove(&k)),
                    _ => proptest::prop_assert_eq!(map.get(&k), model.get(&k)),
                }
                proptest::prop_assert_eq!(map.len(), model.len());
            }
            let mut entries: Vec<(Auid, u32)> = map.into_iter().collect();
            entries.sort();
            proptest::prop_assert_eq!(entries, model.into_iter().collect::<Vec<_>>());
        }
    }
}
