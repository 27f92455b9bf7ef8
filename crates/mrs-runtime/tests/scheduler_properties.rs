//! Property tests over the schedulers: for *randomly shaped* operation
//! chains (split counts, partition counts, chain length, fused or unfused
//! rounds, wait/discard/keep positions), the pool scheduler must produce
//! exactly what the serial runtime produces. This is the §IV-A
//! identical-answers invariant quantified over job shapes rather than one
//! fixed program.

use mrs_core::kv::encode_record;
use mrs_core::{Datum, MapReduce, Record, Simple};
use mrs_runtime::{Job, LocalRuntime, SerialRuntime};
use proptest::prelude::*;
use std::sync::Arc;

/// A self-feeding program: key and value are both u64, map fans each
/// record out deterministically, reduce folds values. Output of reduce is
/// valid input to map, so arbitrary chains type-check.
struct FanFold;

impl MapReduce for FanFold {
    type K1 = u64;
    type V1 = u64;
    type K2 = u64;
    type V2 = u64;

    fn map(&self, k: u64, v: u64, emit: &mut dyn FnMut(u64, u64)) {
        // Deterministic fan-out of 1..=2 records with key mixing.
        emit(k.wrapping_mul(31).wrapping_add(v) % 64, v.wrapping_add(1));
        if v.is_multiple_of(3) {
            emit(k % 64, v / 2 + 1);
        }
    }

    fn reduce(&self, _k: u64, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
        // Order-insensitive fold (sum + count mixed in).
        let mut sum = 0u64;
        let mut count = 0u64;
        for v in vs {
            sum = sum.wrapping_add(v);
            count += 1;
        }
        emit(sum.wrapping_mul(2).wrapping_add(count));
    }

    fn has_combiner(&self) -> bool {
        false // folding twice would change results; keep reduce-only
    }
}

#[derive(Clone, Debug)]
struct Round {
    parts: usize,
    wait_after: bool,
    discard_map: bool,
    /// Open this round with a fused `reduce_map_data` over the previous
    /// round's map output instead of a reduce followed by a map.
    fused: bool,
    /// Pin the dataset that closes this round and fetch it at the end,
    /// long after its last consumer finished.
    keep: bool,
}

fn arb_round() -> impl Strategy<Value = Round> {
    (1usize..6, any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(parts, wait_after, discard_map, fused, keep)| Round {
            parts,
            wait_after,
            discard_map,
            fused,
            keep,
        },
    )
}

fn run_chain(job: &mut Job, input: Vec<Record>, splits: usize, rounds: &[Round]) -> Vec<Record> {
    let src = job.local_data(input, splits).unwrap();
    let mut mapped = job.map_data(src, 0, rounds[0].parts, false).unwrap();
    let mut kept = Vec::new();
    for (i, round) in rounds.iter().enumerate() {
        // Close the round with a reduce: fused with the next round's map
        // when that round asks for it, followed by that map otherwise.
        let next = rounds.get(i + 1);
        let closed = match next {
            Some(next) if next.fused => {
                job.reduce_map_data(mapped, 0, 0, next.parts, false).unwrap()
            }
            _ => job.reduce_data(mapped, 0).unwrap(),
        };
        if round.keep {
            // Pinned before its consumer is queued, as a driver would.
            job.keep(closed);
            kept.push(closed);
        }
        let opened = match next {
            Some(next) if !next.fused => job.map_data(closed, 0, next.parts, false).unwrap(),
            _ => closed,
        };
        if round.wait_after {
            job.wait(closed).unwrap();
            // Only safe to discard once its consumer finished.
            if round.discard_map && !kept.contains(&mapped) {
                job.discard(mapped);
            }
        }
        mapped = opened;
    }
    // `mapped` is the last round's reduce output by now.
    let mut out = job.fetch_all(mapped).unwrap();
    for data in kept {
        out.extend(job.fetch_all(data).unwrap());
    }
    out.sort();
    out
}

fn input_records(n: u64) -> Vec<Record> {
    (0..n).map(|i| encode_record(&(i % 16), &i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pool_matches_serial_on_random_chains(
        n in 1u64..60,
        splits in 1usize..7,
        workers in 1usize..6,
        rounds in proptest::collection::vec(arb_round(), 1..5),
    ) {
        let serial = {
            let mut rt = SerialRuntime::new(Arc::new(Simple(FanFold)));
            let mut job = Job::new(&mut rt);
            run_chain(&mut job, input_records(n), 1, &rounds)
        };
        let pool = {
            let mut rt = LocalRuntime::pool(Arc::new(Simple(FanFold)), workers);
            let mut job = Job::new(&mut rt);
            run_chain(&mut job, input_records(n), splits, &rounds)
        };
        prop_assert_eq!(serial, pool);
    }

    #[test]
    fn repeated_runs_are_deterministic(
        n in 1u64..40,
        splits in 1usize..5,
        rounds in proptest::collection::vec(arb_round(), 1..4),
    ) {
        let run_once = || {
            let mut rt = LocalRuntime::pool(Arc::new(Simple(FanFold)), 4);
            let mut job = Job::new(&mut rt);
            run_chain(&mut job, input_records(n), splits, &rounds)
        };
        prop_assert_eq!(run_once(), run_once());
    }

    #[test]
    fn record_count_is_conserved_by_reduce_keys(
        n in 1u64..50,
        parts in 1usize..8,
    ) {
        // After one map+reduce, the number of output records equals the
        // number of distinct intermediate keys, regardless of partitioning.
        let out = {
            let mut rt = SerialRuntime::new(Arc::new(Simple(FanFold)));
            let mut job = Job::new(&mut rt);
            let src = job.local_data(input_records(n), 1).unwrap();
            let m = job.map_data(src, 0, parts, false).unwrap();
            let r = job.reduce_data(m, 0).unwrap();
            job.fetch_all(r).unwrap()
        };
        let mut keys: Vec<u64> =
            out.iter().map(|(k, _)| u64::from_bytes(k).unwrap()).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(before, keys.len(), "duplicate key across partitions");
    }
}
