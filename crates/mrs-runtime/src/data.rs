//! Materialized datasets: what an operation produces.
//!
//! A dataset is a list of *splits*; a map or reduce task reads one split's
//! worth of input. Splitting input data evenly across a target task count
//! is the runtimes' first scheduling decision.
//!
//! Records are `(Vec<u8>, Vec<u8>)` only in `JobApi::local_data`
//! arguments and `fetch_all` results. In between, every in-process plane
//! holds each split, run and op output as an `Arc<Bucket>`: a task takes
//! its input by reference count, and the two conversions at the edges
//! ([`split_buckets`], [`materialize`]) each run once per dataset. A
//! bucket crossing the wire is its frame end to end ([`crate::workers`]).
//!
//! The edges convert bytes, not allocations. `local_data` copies the
//! caller's records into buckets (on the cluster, into source frames) and
//! then keeps the records themselves as the runtime's *stock*, replacing
//! any earlier one; the next `fetch_all` takes the stock and writes its
//! answer over it, record by record into the stock's key and value
//! buffers, and returns the stock's own vector. The driver thread thus
//! neither frees an input nor allocates an answer per record. The stock
//! is at most one input, held until the next `fetch_all`, the next
//! `local_data` or the runtime's drop; a returned record may keep spare
//! capacity from the input record it was written into. Serial, the
//! oracle, keeps no stock: it builds each answer fresh, so comparing the
//! planes with it compares the recycled edge with the plain one.

use crate::metrics::{Counter, JobMetrics};
use mrs_core::kv::overwrite_record;
use mrs_core::{Bucket, Record, TaskSpec};
use std::sync::Arc;
use std::time::Duration;

/// Identifies a dataset within one job (sources and op outputs alike).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataId(pub u32);

/// Lengths of `splits` contiguous, nearly equal pieces of `n` records.
fn split_lens(n: usize, splits: usize) -> impl Iterator<Item = usize> {
    assert!(splits > 0, "need at least one split");
    (0..splits).map(move |i| n / splits + usize::from(i < n % splits))
}

/// Split `records` into `splits` contiguous, nearly equal pieces. Always
/// returns exactly `splits` pieces (some possibly empty), preserving order.
pub fn split_evenly(records: Vec<Record>, splits: usize) -> Vec<Vec<Record>> {
    let mut iter = records.into_iter();
    split_lens(iter.len(), splits).map(|take| iter.by_ref().take(take).collect()).collect()
}

/// The pieces of [`split_evenly`] as borrowed slices.
pub(crate) fn split_slices(records: &[Record], splits: usize) -> impl Iterator<Item = &[Record]> {
    let mut rest = records;
    split_lens(records.len(), splits).map(move |take| {
        let (head, tail) = rest.split_at(take);
        rest = tail;
        head
    })
}

/// The `local_data` edge: the caller's records copied once into one
/// arena-backed bucket per split.
pub(crate) fn split_buckets(records: &[Record], splits: usize) -> Vec<Arc<Bucket>> {
    split_slices(records, splits).map(|s| Arc::new(Bucket::from_slice(s))).collect()
}

/// The `fetch_all` edge: `buckets`' records copied once, in order, over
/// the records `out` holds ([`overwrite_record`]), those past its end
/// pushed; `out`, holding exactly them, is the answer.
pub(crate) fn materialize(buckets: &[Arc<Bucket>], mut out: Vec<Record>) -> Vec<Record> {
    let count: usize = buckets.iter().map(|b| b.len()).sum();
    out.reserve(count.saturating_sub(out.len()));
    let mut at = 0;
    for b in buckets {
        let reuse = out.len().saturating_sub(at).min(b.len());
        for (rec, (k, v)) in out[at..at + reuse].iter_mut().zip(b.iter()) {
            overwrite_record(rec, k, v);
        }
        out.extend((reuse..b.len()).map(|i| b.get(i)).map(|(k, v)| (k.to_vec(), v.to_vec())));
        at += b.len();
    }
    out.truncate(count);
    out
}

/// Partition `p` of every task of a map-like dataset, taken by reference
/// count: the merge runs of one reduce-like task.
pub(crate) fn partition_runs<'a>(
    tasks: impl Iterator<Item = &'a Vec<Arc<Bucket>>>,
    p: usize,
    metrics: &mut JobMetrics,
) -> Vec<Arc<Bucket>> {
    let t0 = std::time::Instant::now();
    let runs: Vec<Arc<Bucket>> = tasks.map(|task| Arc::clone(&task[p])).collect();
    // In-process runs come straight off the map kernels, which guarantee
    // sorted output, so every run counts as presorted.
    let records = runs.iter().map(|r| r.len()).sum();
    count_merge_input(metrics, runs.len(), runs.len(), records, t0);
    runs
}

/// Count one reduce-like task's input, on any plane: `runs` merge runs,
/// `presorted` of them already in key order, `records` in all, made
/// merge-ready since `t0`.
pub(crate) fn count_merge_input(
    metrics: &mut JobMetrics,
    runs: usize,
    presorted: usize,
    records: usize,
    t0: std::time::Instant,
) {
    metrics.add(Counter::MergeRuns, runs as u64);
    metrics.add(Counter::PresortedRuns, presorted as u64);
    metrics.max(Counter::PeakReduceRecords, records as u64);
    metrics.add_time(Counter::MergeTime, t0.elapsed());
}

/// Count one executed task of `spec` that ran for `elapsed` and emitted
/// `bytes` (map-like output is shuffle input; a reduce's is not).
pub(crate) fn count_task(
    metrics: &mut JobMetrics,
    spec: &TaskSpec,
    elapsed: Duration,
    bytes: usize,
) {
    let (ops, time) = match spec {
        TaskSpec::Map { .. } => (Counter::MapOps, Counter::MapTime),
        TaskSpec::Reduce { .. } => (Counter::ReduceOps, Counter::ReduceTime),
        TaskSpec::ReduceMap { .. } => (Counter::ReducemapTasks, Counter::ReduceTime),
    };
    metrics.add(ops, 1);
    metrics.add_time(time, elapsed);
    if spec.parts().is_some() {
        metrics.add(Counter::ShuffleBytes, bytes as u64);
    }
}

/// All of `runs` in one bucket, in run order: what the single serial map
/// task reads when its input has several splits.
pub(crate) fn concat(runs: &[Arc<Bucket>]) -> Bucket {
    let bytes = runs.iter().map(|r| r.byte_size()).sum();
    let mut out = Bucket::with_capacity(runs.iter().map(|r| r.len()).sum(), bytes);
    for run in runs {
        out.extend_from(run);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(n: usize) -> Vec<Record> {
        (0..n).map(|i| (vec![i as u8], vec![])).collect()
    }

    #[test]
    fn split_exact_division() {
        let ds = split_evenly(recs(9), 3);
        assert_eq!(ds.iter().map(Vec::len).collect::<Vec<_>>(), vec![3, 3, 3]);
    }

    #[test]
    fn split_with_remainder_front_loads() {
        let ds = split_evenly(recs(10), 4);
        assert_eq!(ds.iter().map(Vec::len).collect::<Vec<_>>(), vec![3, 3, 2, 2]);
    }

    #[test]
    fn split_more_splits_than_records() {
        let ds = split_evenly(recs(2), 5);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.concat().len(), 2);
    }

    #[test]
    fn split_empty_input() {
        let ds = split_evenly(vec![], 3);
        assert_eq!(ds.len(), 3);
        assert!(ds.iter().all(Vec::is_empty));
    }

    #[test]
    fn every_split_shape_holds_the_same_pieces_in_order() {
        let original = recs(17);
        let ds = split_evenly(original.clone(), 5);
        assert_eq!(ds.concat(), original);
        assert!(split_slices(&original, 5).eq(ds.iter().map(Vec::as_slice)));
        let buckets = split_buckets(&original, 5);
        assert!(buckets.iter().map(|b| b.to_records()).eq(ds.iter().cloned()));
        for stock in [vec![], recs(3), recs(40)] {
            assert_eq!(materialize(&buckets, stock), original);
        }
        assert_eq!(concat(&buckets).to_records(), original);
    }

    #[test]
    #[should_panic(expected = "at least one split")]
    fn zero_splits_panics() {
        split_evenly(vec![], 0);
    }
}
