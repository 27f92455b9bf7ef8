//! Partitioners: assign intermediate keys to reduce partitions.
//!
//! The default is a platform-independent hash partitioner (so the serial,
//! mock-parallel, pool, and distributed implementations split data
//! identically — a prerequisite for the paper's "all implementations produce
//! identical answers" debugging discipline). A modulo partitioner is
//! provided for dense integer keys such as PSO particle ids, where keeping
//! key `i` on partition `i mod n` gives the task-affinity scheduler stable
//! locality across iterations.

use mrs_rng::splitmix::hash_bytes;

/// Strategy mapping an encoded key to one of `n` partitions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Partition {
    /// SplitMix-based byte hash; balanced for arbitrary keys.
    #[default]
    Hash,
    /// Interpret the key's trailing 8 bytes as a big-endian `u64` and take
    /// it modulo `n`. Intended for `u64`-encoded keys.
    Mod,
}

const PARTITION_HASH_SEED: u64 = 0x6d72_735f_7061_7274; // "mrs_part"

impl Partition {
    /// The partition index for an encoded key. `n` must be nonzero.
    #[inline]
    pub fn index(&self, key: &[u8], n: usize) -> usize {
        assert!(n > 0, "cannot partition into 0 parts");
        match self {
            Partition::Hash => {
                let h = hash_bytes(PARTITION_HASH_SEED, key);
                // Called once per emitted record: a power-of-two `n` (the
                // usual reduce count) takes the same remainder by mask.
                if n.is_power_of_two() {
                    h as usize & (n - 1)
                } else {
                    (h % n as u64) as usize
                }
            }
            Partition::Mod => {
                let mut tail = [0u8; 8];
                let take = key.len().min(8);
                tail[8 - take..].copy_from_slice(&key[key.len() - take..]);
                (u64::from_be_bytes(tail) % n as u64) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Datum;

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let p = Partition::Hash;
        for n in [1usize, 2, 7, 64] {
            for k in 0..200u64 {
                let key = k.to_bytes();
                let i = p.index(&key, n);
                assert!(i < n);
                assert_eq!(i, p.index(&key, n));
            }
        }
    }

    #[test]
    fn hash_index_is_the_remainder_for_every_part_count() {
        for n in 1..=17usize {
            for k in 0..300u64 {
                let key = format!("word{k}").to_bytes();
                let h = hash_bytes(PARTITION_HASH_SEED, &key);
                assert_eq!(Partition::Hash.index(&key, n), (h % n as u64) as usize, "n={n}");
            }
        }
    }

    #[test]
    fn hash_is_reasonably_balanced() {
        let p = Partition::Hash;
        let n = 8;
        let mut counts = vec![0usize; n];
        for k in 0..8000u64 {
            counts[p.index(&k.to_bytes(), n)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn mod_maps_dense_u64_keys_cyclically() {
        let p = Partition::Mod;
        for k in 0..100u64 {
            assert_eq!(p.index(&k.to_bytes(), 7), (k % 7) as usize);
        }
    }

    #[test]
    fn mod_handles_short_keys() {
        let p = Partition::Mod;
        // Key shorter than 8 bytes: zero-extended on the left.
        assert_eq!(p.index(&[5], 16), 5);
        assert_eq!(p.index(&[], 16), 0);
    }

    #[test]
    fn single_partition_takes_everything() {
        for p in [Partition::Hash, Partition::Mod] {
            assert_eq!(p.index(b"anything", 1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "0 parts")]
    fn zero_parts_panics() {
        Partition::Hash.index(b"k", 0);
    }
}
