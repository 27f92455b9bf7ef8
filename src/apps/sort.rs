//! Distributed sort (TeraSort-style): the classic MapReduce benchmark
//! that needs *range* partitioning.
//!
//! Map is the identity; the work is in the partitioner: keys are routed
//! to partitions by sampled range boundaries so that partition `p`'s keys
//! all precede partition `p+1`'s. Each reduce then receives one key range,
//! and because the shuffle sorts within a partition, concatenating the
//! reduce outputs in partition order yields a *globally* sorted dataset —
//! no global sort ever runs anywhere.
//!
//! Keys are `u64`, whose big-endian `Datum` encoding makes byte order
//! equal numeric order (see `mrs_core::kv`), exactly the property the
//! shuffle sort needs.

use mrs_core::bucket::key_prefix;
use mrs_core::kv::encode_record;
use mrs_core::{Datum, Error, MapReduce, Record, Result};
use mrs_rng::{Rng64, SplitMix64};

/// The sort program: identity map/reduce plus range partitioning over
/// sampled boundaries.
pub struct RangeSort {
    /// Upper-exclusive encoded-key boundary of each partition except the
    /// last (ascending). `boundaries.len() + 1` = partition count the
    /// sampler planned for (the job may use fewer or equal `parts`).
    boundaries: Vec<Vec<u8>>,
    /// [`key_prefix`] of each boundary: what the partitioner searches.
    /// The boundary bytes are read only where a key's prefix ties.
    prefixes: Vec<u64>,
}

impl RangeSort {
    /// Plan a sort into `parts` partitions from a sample of the input:
    /// boundaries are the `i·len/parts` quantiles of the sampled keys.
    pub fn plan(sample: &[Record], parts: usize) -> Result<RangeSort> {
        if parts == 0 {
            return Err(Error::Invalid("need at least one partition".into()));
        }
        let mut keys: Vec<Vec<u8>> = sample.iter().map(|(k, _)| k.clone()).collect();
        keys.sort();
        let boundaries: Vec<Vec<u8>> = (1..parts)
            .map(|i| {
                let idx = (i * keys.len()) / parts;
                keys.get(idx).cloned().unwrap_or_default()
            })
            .collect();
        let prefixes = boundaries.iter().map(|b| key_prefix(b)).collect();
        Ok(RangeSort { boundaries, prefixes })
    }

    /// Draw a deterministic sample of about `n` records.
    pub fn sample(records: &[Record], n: usize, seed: u64) -> Vec<Record> {
        if records.len() <= n {
            return records.to_vec();
        }
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| records[rng.below(records.len() as u64) as usize].clone()).collect()
    }
}

impl MapReduce for RangeSort {
    type K1 = u64;
    type V1 = u64;
    type K2 = u64;
    type V2 = u64;

    fn map(&self, key: u64, value: u64, emit: &mut dyn FnMut(u64, u64)) {
        emit(key, value);
    }

    fn reduce(&self, _key: u64, values: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
        for v in values {
            emit(v);
        }
    }

    fn custom_partition(&self, key: &[u8], parts: usize) -> Option<usize> {
        // The first boundary strictly greater than the key names the
        // partition. A smaller prefix means a smaller key, so an integer
        // search settles every boundary but those whose prefix ties.
        let prefix = key_prefix(key);
        let end = self.prefixes.partition_point(|&p| p <= prefix);
        let tied = self.prefixes[..end].iter().rev().take_while(|&&p| p == prefix).count();
        let ties = &self.boundaries[end - tied..end];
        let planned = end - tied + ties.partition_point(|b| b.as_slice() <= key);
        Some(planned.min(parts - 1))
    }
}

/// Build `(key, payload)` records from raw keys.
pub fn keyed_records(keys: &[u64]) -> Vec<Record> {
    keys.iter().map(|&k| encode_record(&k, &k)).collect()
}

/// Decode a sort output partition back to keys (in stored order).
pub fn decode_keys(records: &[Record]) -> Result<Vec<u64>> {
    records.iter().map(|(k, _)| u64::from_bytes(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::Simple;
    use mrs_runtime::{Job, LocalRuntime};
    use std::sync::Arc;

    fn scrambled(n: u64, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64() % 10_000).collect()
    }

    /// Run the full distributed sort and return the concatenated output.
    fn dsort(keys: &[u64], parts: usize, workers: usize) -> Vec<u64> {
        let input = keyed_records(keys);
        let sample = RangeSort::sample(&input, 64, 42);
        let program = Arc::new(Simple(RangeSort::plan(&sample, parts).unwrap()));
        let mut rt = LocalRuntime::pool(program, workers);
        let mut job = Job::new(&mut rt);
        let src = job.local_data(input, workers.max(2)).unwrap();
        let m = job.map_data(src, 0, parts, false).unwrap();
        let r = job.reduce_data(m, 0).unwrap();
        // fetch_all concatenates partitions in order.
        decode_keys(&job.fetch_all(r).unwrap()).unwrap()
    }

    #[test]
    fn output_is_globally_sorted() {
        let keys = scrambled(2_000, 7);
        let out = dsort(&keys, 8, 4);
        assert_eq!(out.len(), keys.len());
        assert!(out.windows(2).all(|w| w[0] <= w[1]), "not globally sorted");
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    #[test]
    fn works_with_one_partition_and_many() {
        for parts in [1usize, 2, 5, 16] {
            let keys = scrambled(300, parts as u64);
            let out = dsort(&keys, parts, 3);
            assert!(out.windows(2).all(|w| w[0] <= w[1]), "parts={parts}");
        }
    }

    #[test]
    fn sampling_balances_partitions_roughly() {
        let keys = scrambled(4_000, 3);
        let input = keyed_records(&keys);
        let sample = RangeSort::sample(&input, 256, 1);
        let sorter = RangeSort::plan(&sample, 8).unwrap();
        let mut counts = vec![0usize; 8];
        for (k, _) in &input {
            counts[sorter.custom_partition(k, 8).unwrap()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < min * 4 + 64, "badly skewed: {counts:?}");
    }

    #[test]
    fn prefix_search_assigns_every_key_as_the_byte_search_does() {
        // Boundaries and keys that tie on the 8-byte prefix, are shorter
        // than it, or differ only past it.
        let stems: [&[u8]; 4] = [&[0; 12], b"prefix--\0\0\0\0", b"prefix--tail", &[0xff; 12]];
        let keys: Vec<Vec<u8>> =
            stems.iter().flat_map(|s| (0..=12).map(|len| s[..len].to_vec())).collect();
        for every in [1, 3, 7] {
            let sample: Vec<Record> =
                keys.iter().step_by(every).map(|k| (k.clone(), vec![])).collect();
            for parts in [1, 2, 5, 16] {
                let sorter = RangeSort::plan(&sample, parts).unwrap();
                for key in &keys {
                    let bytewise = sorter.boundaries.partition_point(|b| b <= key);
                    assert_eq!(
                        sorter.custom_partition(key, parts),
                        Some(bytewise.min(parts - 1)),
                        "key {key:?}, boundaries {:?}",
                        sorter.boundaries
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_heavy_input_sorts() {
        let keys: Vec<u64> = (0..500).map(|i| i % 7).collect();
        let out = dsort(&keys, 4, 3);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            out.iter().filter(|&&k| k == 3).count(),
            keys.iter().filter(|&&k| k == 3).count()
        );
    }

    #[test]
    fn empty_sample_still_plans() {
        let sorter = RangeSort::plan(&[], 4).unwrap();
        // Everything lands somewhere valid.
        for k in 0..100u64 {
            let p = sorter.custom_partition(&k.to_bytes(), 4).unwrap();
            assert!(p < 4);
        }
    }

    #[test]
    fn zero_partitions_rejected() {
        assert!(RangeSort::plan(&[], 0).is_err());
    }
}
